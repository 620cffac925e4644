package sim

import (
	"sync"

	"mosaic/internal/arch"
	"mosaic/internal/mem"
)

// Kind distinguishes the two engine families a Pool manages.
type Kind int

// Engine kinds.
const (
	// KindFull is the full timing machine (internal/cpu).
	KindFull Kind = iota
	// KindPartial is the partial simulator (internal/partialsim).
	KindPartial
)

// String names the kind.
func (k Kind) String() string {
	if k == KindPartial {
		return "partial"
	}
	return "full"
}

// maxIdle caps the idle engines Put retains per (kind, platform) bucket.
// A sweep holds at most one engine per worker, but callers outside a
// sweep — concurrent Runner.RunLayout and Runner.PartialSimulate calls,
// such as a daemon's training jobs — each take an engine of their own and
// return it afterwards. Without a cap a burst of them would leave the pool
// pinning up to a megabyte of TLB/cache arrays per engine for the rest of
// the process; with it, engines beyond the cap go to the GC.
const maxIdle = 16

type poolKey struct {
	kind Kind
	plat string
}

// Pool recycles engines across replays. Engines are keyed by (kind,
// platform name): a Get for a platform that has an idle engine Resets and
// returns it — reusing its set-associative TLB/cache arrays — instead of
// allocating a new machine. Put retains at most maxIdle idle engines per
// (kind, platform) and drops the rest for the GC. The zero Pool is ready
// to use.
type Pool struct {
	mu   sync.Mutex
	free map[poolKey][]Engine
}

// Get returns an engine of the given kind, Reset to (plat, space). It
// reuses an idle pooled engine when one exists for the platform and builds
// a fresh one otherwise.
func (p *Pool) Get(kind Kind, plat arch.Platform, space *mem.AddressSpace) (Engine, error) {
	key := poolKey{kind: kind, plat: plat.Name}
	p.mu.Lock()
	var e Engine
	if list := p.free[key]; len(list) > 0 {
		e = list[len(list)-1]
		p.free[key] = list[:len(list)-1]
	}
	p.mu.Unlock()
	if e != nil {
		if err := e.Reset(plat, space); err != nil {
			return nil, err
		}
		return e, nil
	}
	switch kind {
	case KindPartial:
		return NewPartial(plat, space)
	default:
		return NewFull(plat, space)
	}
}

// Full is Get(KindFull, ...) with a concrete return type.
func (p *Pool) Full(plat arch.Platform, space *mem.AddressSpace) (*Full, error) {
	e, err := p.Get(KindFull, plat, space)
	if err != nil {
		return nil, err
	}
	return e.(*Full), nil
}

// Partial is Get(KindPartial, ...) with a concrete return type.
func (p *Pool) Partial(plat arch.Platform, space *mem.AddressSpace) (*Partial, error) {
	e, err := p.Get(KindPartial, plat, space)
	if err != nil {
		return nil, err
	}
	return e.(*Partial), nil
}

// Put returns an engine to the pool for reuse. The engine must not be used
// by the caller afterwards. When the engine's (kind, platform) bucket is
// already at the cap, the engine is dropped for the GC to reclaim instead
// of retained.
func (p *Pool) Put(e Engine) {
	if e == nil {
		return
	}
	kind := KindFull
	if _, ok := e.(*Partial); ok {
		kind = KindPartial
	}
	key := poolKey{kind: kind, plat: e.Platform().Name}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[key]) >= maxIdle {
		return
	}
	if p.free == nil {
		p.free = make(map[poolKey][]Engine)
	}
	p.free[key] = append(p.free[key], e)
}

// Idle reports the number of pooled idle engines (for tests and stats).
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.free {
		n += len(list)
	}
	return n
}
