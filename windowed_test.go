// Top-level acceptance test for parallel windowed replay: the quick sweep
// over the bundled workloads, split into K windows, must be bit-identical
// to the unwindowed sweep (proven per-package in internal/sim and
// internal/experiment).
package mosaic

import (
	"path/filepath"
	"testing"

	"mosaic/internal/arch"
	"mosaic/internal/experiment"
	"mosaic/internal/workloads"
)

// TestWindowedSweepRace exercises concurrent windowed replay inside one
// sweep — K window workers × N layouts sharing pooled engines, address
// spaces, and a checkpoint store — at sizes small enough that CI can run it
// under -race -count=2. The windowed passes also re-check bit-identity
// against the unwindowed sweep while the race detector watches.
func TestWindowedSweepRace(t *testing.T) {
	dir := t.TempDir()
	ckptDir := t.TempDir()
	plats := []arch.Platform{arch.SandyBridge}
	w, err := workloads.ByName("gups/8GB")
	if err != nil {
		t.Fatal(err)
	}
	ws := []workloads.Workload{w}

	collect := func(k int, ckpt string) []*experiment.Dataset {
		r := experiment.NewRunner()
		r.Proto = experiment.Quick
		r.TraceDir = dir
		r.Parallelism = 2
		r.Windows = k
		r.CheckpointDir = ckpt
		dss, err := r.CollectAll(ws, plats, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dss
	}

	ref := collect(0, "")
	exact := collect(4, ckptDir) // cold: saves checkpoints while racing
	warm := collect(4, ckptDir)  // warm: restores them concurrently

	if files, err := filepath.Glob(filepath.Join(ckptDir, "*.mosckpt")); err != nil || len(files) == 0 {
		t.Fatalf("cold windowed sweep saved no checkpoints (err=%v)", err)
	}
	for name, got := range map[string][]*experiment.Dataset{"cold": exact, "warm": warm} {
		if len(got) != len(ref) {
			t.Fatalf("%s: %d datasets, want %d", name, len(got), len(ref))
		}
		for d := range ref {
			for layoutName, rc := range ref[d].Counters {
				if gc := got[d].Counters[layoutName]; gc != rc {
					t.Errorf("%s: %s@%s/%s diverges from unwindowed sweep:\n got %+v\nwant %+v",
						name, ref[d].Workload, ref[d].Platform, layoutName, gc, rc)
				}
			}
		}
	}
}
