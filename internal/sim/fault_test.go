package sim

import (
	"errors"
	"math/rand"
	"testing"

	"mosaic/internal/cpu"
	"mosaic/internal/mem"
	"mosaic/internal/trace"
)

// faultTrace is testTrace confined to the lower half of the test window,
// except access bad, which lands in the upper half. Phased traces split
// into three phases.
func faultTrace(size uint64, n, bad int, phased bool) (*trace.Trace, uint64) {
	rng := rand.New(rand.NewSource(41))
	b := trace.NewBuilder("fault-probe", n)
	badVA := testRegion + mem.Addr(size*3/4)
	for i := 0; i < n; i++ {
		if phased && i%(n/3) == 0 {
			b.BeginPhase([]string{"a", "b", "c"}[i/(n/3)])
		}
		b.Compute(4)
		va := testRegion + mem.Addr(rng.Uint64()%(size/2))
		if i == bad {
			va = badVA
		}
		b.LoadDep(va)
	}
	return b.Trace(), uint64(badVA)
}

// TestFaultTypedOnEveryPath: whether an engine replays a trace exactly or
// phased, a fault surfaces as a *cpu.FaultError naming the trace, the
// access index, and the faulting address, for either engine kind.
func TestFaultTypedOnEveryPath(t *testing.T) {
	const n, bad = 300000, 299000
	size := uint64(64 << 20)
	half := buildTestSpace(t, size/2, mem.Page4K)

	for _, kind := range []string{"full", "partial"} {
		for _, path := range []string{"solo", "phased"} {
			t.Run(kind+"/"+path, func(t *testing.T) {
				tr, badVA := faultTrace(size, n, bad, path == "phased")
				_, err := sampledTestEngines(t, kind, []*mem.AddressSpace{half})[0].Run(tr)
				var fe *cpu.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("error %v (%T), want *cpu.FaultError", err, err)
				}
				if fe.Trace != tr.Name || fe.Index != bad || fe.VA != badVA || fe.Walk {
					t.Errorf("fault %+v, want trace %q index %d VA %#x", fe, tr.Name, bad, badVA)
				}
			})
		}
	}
}
