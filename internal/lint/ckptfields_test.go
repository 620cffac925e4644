package lint

import "testing"

func ckptCfg() *Config {
	cfg := DefaultConfig()
	cfg.Checks = []string{"ckptfields"}
	return cfg
}

func TestCkptFields(t *testing.T) {
	cases := []struct {
		name string
		src  string // synthetic internal/engine package
		want []string
	}{
		{
			// The ISSUE's acceptance fixture: a field added to the snapshot
			// type but never serialized must be caught.
			name: "unserialized snapshot field is caught",
			src: `package engine
type State struct{ A, B uint64 }
type Box struct{ a, b uint64 }
func (x *Box) Snapshot() State { return State{A: x.a} }
func (x *Box) Restore(s State) { x.a = s.A }
`,
			// Snapshot never writes State.B, never captures receiver b;
			// Restore never reads State.B.
			want: []string{"4:ckptfields", "4:ckptfields", "5:ckptfields"},
		},
		{
			name: "complete contract is clean",
			src: `package engine
type State struct{ A, B uint64 }
type Box struct{ a, b uint64 }
func (x *Box) Snapshot() State { return State{A: x.a, B: x.b} }
func (x *Box) Restore(s State) { x.a = s.A; x.b = s.B }
`,
			want: nil,
		},
		{
			name: "writes through transitive same-package helpers count",
			src: `package engine
type State struct{ A, B uint64 }
type Box struct{ a, b uint64 }
func (x *Box) Snapshot() State {
	var s State
	x.fillA(&s)
	s.B = x.b
	return s
}
func (x *Box) fillA(s *State) { s.A = x.a }
func (x *Box) Restore(s State) { x.a = s.A; x.b = s.B }
`,
			want: nil,
		},
		{
			name: "ckptexempt names the omitted fields",
			src: `package engine
type State struct{ A, B uint64 }
type Box struct{ a, cfg uint64 }
// Snapshot captures the replayed state.
//
//mosvet:ckptexempt B,cfg B is derived on restore and cfg is constructor-owned configuration
func (x *Box) Snapshot() State { return State{A: x.a} }
// Restore seeds the replayed state.
//
//mosvet:ckptexempt B B is recomputed from A on the next access
func (x *Box) Restore(s State) { x.a = s.A }
`,
			want: nil,
		},
		{
			name: "exemption covers only the named fields",
			src: `package engine
type State struct{ A, B, C uint64 }
type Box struct{ a, b, c uint64 }
// Snapshot captures the replayed state.
//
//mosvet:ckptexempt C C is a scratch register dead across checkpoints
func (x *Box) Snapshot() State { return State{A: x.a} }
func (x *Box) Restore(s State) { x.a = s.A; x.b = s.B; x.c = s.C }
`,
			// B still missing from Snapshot, and receiver b, c uncaptured
			// (the exemption names C, not the receiver's b; receiver c IS
			// covered by the same name).
			want: []string{"7:ckptfields", "7:ckptfields", "7:ckptfields"},
		},
		{
			name: "Snapshot without Restore breaks the contract",
			src: `package engine
type State struct{ A uint64 }
type Box struct{ a uint64 }
func (x *Box) Snapshot() State { return State{A: x.a} }
`,
			want: []string{"4:ckptfields"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := analyze(t, "internal/engine", tc.src, ckptCfg())
			wantFindings(t, got, tc.want...)
		})
	}
}

// TestCkptFieldsDelegation: a wrapper whose Snapshot/Restore only forward
// to another package's contract owns no fields and is not charged with the
// write/read obligations.
func TestCkptFieldsDelegation(t *testing.T) {
	got := analyzeModuleSrc(t, map[string]map[string]string{
		"internal/engine": {"box.go": `package engine
type State struct{ A, B uint64 }
type Box struct{ a, b uint64 }
func (x *Box) Snapshot() State { return State{A: x.a, B: x.b} }
func (x *Box) Restore(s State) { x.a = s.A; x.b = s.B }
`},
		"internal/harness": {"wrap.go": `package harness
import "synthetic/internal/engine"
type Wrap struct{ inner *engine.Box }
func (w *Wrap) Snapshot() engine.State { return w.inner.Snapshot() }
func (w *Wrap) Restore(s engine.State) { w.inner.Restore(s) }
`},
	}, ckptCfg())
	wantFindings(t, got)
}
