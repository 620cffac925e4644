package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleResult() *ModuleResult {
	return &ModuleResult{
		Root: "/mod",
		Suppressions: []Suppression{
			{File: "/mod/internal/stats/qr.go", Line: 10, Directive: "ignore", Checks: []string{"floateq"}, Reason: "singularity sentinel"},
			{File: "/mod/internal/tlb/tlb.go", Line: 20, Directive: "timing", Reason: "replay wall time"},
		},
	}
}

func TestNewBaselineRelativizesPaths(t *testing.T) {
	b := NewBaseline(sampleResult())
	if got := b.Suppressions[0].File; got != "internal/stats/qr.go" {
		t.Errorf("suppression file = %q, want module-relative", got)
	}
}

func TestBaselineDiff(t *testing.T) {
	res := sampleResult()
	b := NewBaseline(res)

	t.Run("fresh baseline is clean", func(t *testing.T) {
		if drift := b.Diff(relativeSuppressions(res)); len(drift) != 0 {
			t.Errorf("fresh baseline drifted: %v", drift)
		}
	})
	t.Run("line moves are not drift", func(t *testing.T) {
		moved := relativeSuppressions(res)
		moved[0].Line += 40 // unrelated edit shifted the file
		if drift := b.Diff(moved); len(drift) != 0 {
			t.Errorf("line-only move reported as drift: %v", drift)
		}
	})
	t.Run("new exemption is drift", func(t *testing.T) {
		extra := append(relativeSuppressions(res), Suppression{
			File: "internal/cpu/segment.go", Directive: "ignore", Checks: []string{"lockorder"}, Reason: "new",
		})
		drift := b.Diff(extra)
		if len(drift) != 1 || !strings.Contains(drift[0], "not in baseline") {
			t.Errorf("added exemption not flagged: %v", drift)
		}
	})
	t.Run("removed exemption is drift", func(t *testing.T) {
		drift := b.Diff(relativeSuppressions(res)[:1])
		if len(drift) != 1 || !strings.Contains(drift[0], "no longer present") {
			t.Errorf("removed exemption not flagged: %v", drift)
		}
	})
	t.Run("reworded reason is drift", func(t *testing.T) {
		reworded := relativeSuppressions(res)
		reworded[1].Reason = "different justification"
		drift := b.Diff(reworded)
		if len(drift) != 2 { // one side missing, one side extra
			t.Errorf("reworded reason drift = %v, want both directions", drift)
		}
	})
}

func TestBaselineFileRoundTrip(t *testing.T) {
	res := sampleResult()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := NewBaseline(res).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	drift, err := VerifyBaseline(path, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 0 {
		t.Errorf("round-tripped baseline drifted: %v", drift)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "-write-baseline") {
		t.Error("baseline note does not say how to regenerate")
	}
}

// TestDirectiveGrammar: the new doc directives parse, inventory, and
// reject missing reasons like the line-level ignore does.
func TestDirectiveGrammar(t *testing.T) {
	t.Run("unknown directive kind is flagged", func(t *testing.T) {
		src := `package p
//mosvet:nosuchthing whatever
func f() {}
`
		got := analyze(t, "internal/sim", src, DefaultConfig())
		wantFindings(t, got, "2:mosvet")
	})
}

func TestSuppressionKeyIgnoresLine(t *testing.T) {
	a := Suppression{File: "f.go", Line: 1, Directive: "ignore", Checks: []string{"floateq"}, Reason: "r"}
	b := Suppression{File: "f.go", Line: 99, Directive: "ignore", Checks: []string{"floateq"}, Reason: "r"}
	if suppressionKey(a) != suppressionKey(b) {
		t.Error("baseline identity must not include the line number")
	}
	c := b
	c.Reason = "other"
	if suppressionKey(a) == suppressionKey(c) {
		t.Error("baseline identity must include the reason")
	}
}
