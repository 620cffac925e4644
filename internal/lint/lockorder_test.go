package lint

import "testing"

func lockOrderCfg() *Config {
	cfg := DefaultConfig()
	cfg.Checks = []string{"lockorder"}
	return cfg
}

func TestLockOrder(t *testing.T) {
	cases := []struct {
		name string
		src  string // synthetic internal/serve package
		want []string
	}{
		{
			name: "consistent ordering is clean",
			src: `package p
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) x() { s.a.Lock(); s.b.Lock(); s.b.Unlock(); s.a.Unlock() }
func (s *S) y() { s.a.Lock(); s.b.Lock(); s.b.Unlock(); s.a.Unlock() }
`,
			want: nil,
		},
		{
			name: "inverted acquisition closes a cycle",
			src: `package p
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) x() { s.a.Lock(); s.b.Lock(); s.b.Unlock(); s.a.Unlock() }
func (s *S) y() { s.b.Lock(); s.a.Lock(); s.a.Unlock(); s.b.Unlock() }
`,
			want: []string{"5:lockorder"},
		},
		{
			name: "defer-released lock still orders later acquisitions",
			src: `package p
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) x() { s.a.Lock(); defer s.a.Unlock(); s.b.Lock(); s.b.Unlock() }
func (s *S) y() { s.b.Lock(); defer s.b.Unlock(); s.a.Lock(); s.a.Unlock() }
`,
			want: []string{"5:lockorder"},
		},
		{
			name: "callee reacquiring a held lock self-deadlocks",
			src: `package p
import "sync"
type S struct{ mu sync.Mutex; n int }
func (s *S) bump() { s.mu.Lock(); s.n++; s.mu.Unlock() }
func (s *S) outer() { s.mu.Lock(); s.bump(); s.mu.Unlock() }
`,
			want: []string{"5:lockorder"},
		},
		{
			name: "transitive blocking under a held lock",
			src: `package p
import (
	"os"
	"sync"
)
type S struct{ mu sync.Mutex }
func (s *S) flush() { os.WriteFile("x", nil, 0o644) }
func (s *S) save() { s.mu.Lock(); s.flush(); s.mu.Unlock() }
`,
			want: []string{"8:lockorder"},
		},
		{
			name: "transitive blocking in init, tag, and post positions",
			src: `package p
import (
	"os"
	"sync"
)
type S struct{ mu sync.Mutex }
func save(p string) error { return os.WriteFile(p, nil, 0o644) }
func (s *S) ifInit(p string) { s.mu.Lock(); defer s.mu.Unlock(); if err := save(p); err != nil { return } }
func (s *S) switchInit(p string) { s.mu.Lock(); defer s.mu.Unlock(); switch err := save(p); err { case nil: } }
func (s *S) switchTag(p string) { s.mu.Lock(); defer s.mu.Unlock(); switch save(p) { case nil: } }
func (s *S) forInit(p string) { s.mu.Lock(); defer s.mu.Unlock(); for err := save(p); err != nil; { return } }
func (s *S) forPost(p string, n int) { s.mu.Lock(); defer s.mu.Unlock(); for i := 0; i < n; _ = save(p) { i++ } }
func (s *S) typeSwitch(p string) { s.mu.Lock(); defer s.mu.Unlock(); switch v := any(save(p)).(type) { case error: _ = v } }
`,
			want: []string{"8:lockorder", "9:lockorder", "10:lockorder", "11:lockorder", "12:lockorder", "13:lockorder"},
		},
		{
			name: "acquisition inside a labeled loop orders too",
			src: `package p
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) x() { s.a.Lock(); s.b.Lock(); s.b.Unlock(); s.a.Unlock() }
func (s *S) y(n int) {
	s.b.Lock()
	defer s.b.Unlock()
loop:
	for i := 0; i < n; i++ {
		s.a.Lock()
		s.a.Unlock()
		break loop
	}
}
`,
			want: []string{"10:lockorder"},
		},
		{
			name: "blocking after release is clean",
			src: `package p
import (
	"os"
	"sync"
)
type S struct{ mu sync.Mutex }
func (s *S) flush() { os.WriteFile("x", nil, 0o644) }
func (s *S) save() { s.mu.Lock(); s.mu.Unlock(); s.flush() }
`,
			want: nil,
		},
		{
			name: "package-level mutexes order too",
			src: `package p
import "sync"
var stateMu, fileMu sync.Mutex
func x() { stateMu.Lock(); fileMu.Lock(); fileMu.Unlock(); stateMu.Unlock() }
func y() { fileMu.Lock(); stateMu.Lock(); stateMu.Unlock(); fileMu.Unlock() }
`,
			// The cycle is reported at whichever edge the DFS closes —
			// here the stateMu→fileMu acquisition in x.
			want: []string{"4:lockorder"},
		},
		{
			name: "suppressed with a justified ignore",
			src: `package p
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) x() { s.a.Lock(); s.b.Lock(); s.b.Unlock(); s.a.Unlock() }
func (s *S) y() {
	s.b.Lock()
	s.a.Lock() //mosvet:ignore lockorder fixture: the b-then-a path never runs concurrently with x
	s.a.Unlock()
	s.b.Unlock()
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := analyze(t, "internal/serve", tc.src, lockOrderCfg())
			wantFindings(t, got, tc.want...)
		})
	}
}

// TestLockIO covers lockorder's direct half: blocking operations written
// between a Lock and its release in the serving packages.
func TestLockIO(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "file read between Lock and Unlock",
			path: "internal/serve",
			src: `package p
import (
	"os"
	"sync"
)
type s struct{ mu sync.Mutex }
func (x *s) bad(path string) {
	x.mu.Lock()
	os.ReadFile(path)
	x.mu.Unlock()
}
func (x *s) good(path string) {
	x.mu.Lock()
	x.mu.Unlock()
	os.ReadFile(path)
}
`,
			want: []string{"9:lockorder"},
		},
		{
			name: "deferred unlock holds to end of function",
			path: "internal/serve/registry",
			src: `package p
import (
	"os"
	"sync"
)
type s struct{ mu sync.RWMutex }
func (x *s) bad(path string, ch chan int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	ch <- 1
	os.Stat(path)
}
`,
			want: []string{"10:lockorder", "11:lockorder"},
		},
		{
			name: "channel receive and blocking select under RLock",
			path: "internal/serve",
			src: `package p
import "sync"
func bad(mu *sync.RWMutex, ch chan int) int {
	mu.RLock()
	v := <-ch
	select {
	case w := <-ch:
		v += w
	}
	mu.RUnlock()
	return v
}
`,
			want: []string{"5:lockorder", "6:lockorder"},
		},
		{
			name: "non-blocking signals under lock are clean",
			path: "internal/serve",
			src: `package p
import "sync"
func ok(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	close(ch)
	select {
	case ch <- 1:
	default:
	}
	mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "function literal is its own scope",
			path: "internal/serve",
			src: `package p
import (
	"os"
	"sync"
)
func ok(mu *sync.Mutex, path string) func() {
	mu.Lock()
	f := func() { os.ReadFile(path) } // runs after Unlock
	mu.Unlock()
	return f
}
`,
			want: nil,
		},
		{
			name: "blocking I/O inside a held loop",
			path: "internal/serve",
			src: `package p
import (
	"os"
	"sync"
)
func bad(mu *sync.Mutex, paths []string) {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range paths {
		os.Stat(p)
	}
}
`,
			want: []string{"10:lockorder"},
		},
		{
			name: "blocking I/O in init, tag, and post positions",
			path: "internal/serve",
			src: `package p
import (
	"os"
	"sync"
)
type s struct{ mu sync.Mutex }
func (x *s) ifInit(p string) { x.mu.Lock(); defer x.mu.Unlock(); if err := os.Remove(p); err != nil { return } }
func (x *s) switchTag(p string) { x.mu.Lock(); defer x.mu.Unlock(); switch os.Remove(p) { case nil: } }
func (x *s) forPost(p string, n int) { x.mu.Lock(); defer x.mu.Unlock(); for i := 0; i < n; _ = os.Remove(p) { i++ } }
func (x *s) typeSwitch(p string) { x.mu.Lock(); defer x.mu.Unlock(); switch v := any(os.Remove(p)).(type) { case error: _ = v } }
`,
			want: []string{"7:lockorder", "8:lockorder", "9:lockorder", "10:lockorder"},
		},
		{
			name: "range over a channel under a held lock",
			path: "internal/serve",
			src: `package p
import "sync"
func bad(mu *sync.Mutex, ch chan int) (n int) {
	mu.Lock()
	defer mu.Unlock()
	for v := range ch {
		n += v
	}
	return n
}
`,
			want: []string{"6:lockorder"},
		},
		{
			name: "outside serving packages nothing fires",
			path: "internal/sim",
			src: `package p
import (
	"os"
	"sync"
)
func ok(mu *sync.Mutex, path string) {
	mu.Lock()
	os.ReadFile(path)
	mu.Unlock()
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, lockOrderCfg()), tc.want...)
		})
	}
}

// TestLockOrderScope: the analyzer only polices the configured serving
// packages — simulation code orders its own locks.
func TestLockOrderScope(t *testing.T) {
	src := `package p
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) x() { s.a.Lock(); s.b.Lock(); s.b.Unlock(); s.a.Unlock() }
func (s *S) y() { s.b.Lock(); s.a.Lock(); s.a.Unlock(); s.b.Unlock() }
`
	got := analyze(t, "internal/report", src, lockOrderCfg())
	wantFindings(t, got)
}

// TestLockOrderCrossPackage: acquisition edges span packages — a job
// manager method taking the registry's lock under its own contributes
// edges to the same module-wide graph.
func TestLockOrderCrossPackage(t *testing.T) {
	got := analyzeModuleSrc(t, map[string]map[string]string{
		"internal/serve/registry": {"reg.go": `package registry
import "sync"
type Reg struct{ Mu sync.Mutex }
func (r *Reg) Tick() { r.Mu.Lock(); r.Mu.Unlock() }
`},
		"internal/serve": {"jobs.go": `package serve
import (
	"sync"
	"synthetic/internal/serve/registry"
)
type Jobs struct {
	mu  sync.Mutex
	reg *registry.Reg
}
func (j *Jobs) a() { j.mu.Lock(); j.reg.Mu.Lock(); j.reg.Mu.Unlock(); j.mu.Unlock() }
func (j *Jobs) b() { j.reg.Mu.Lock(); j.mu.Lock(); j.mu.Unlock(); j.reg.Mu.Unlock() }
`},
	}, lockOrderCfg())
	wantFindings(t, got, "internal/serve/jobs.go:10:lockorder")
}
