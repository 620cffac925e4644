package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/lint"
)

// TestFlagHelp audits the CLI surface: every output/baseline flag must be
// registered with a help string that names its format, so `mosvet -h` is
// the contract for CI wiring (satellite: flag-help unit audit).
func TestFlagHelp(t *testing.T) {
	fs := flag.NewFlagSet("mosvet", flag.ContinueOnError)
	var help bytes.Buffer
	fs.SetOutput(&help)
	// Re-run the real flag registration by invoking run with -h; it prints
	// usage to stderr and exits 2 (flag.ErrHelp).
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-h) = %d, want 2", code)
	}
	usage := stderr.String()
	for flagName, mustMention := range map[string]string{
		"-baseline":       "suppression-audit baseline",
		"-write-baseline": "regenerate",
		"-checks":         "subset of checks",
		"-list":           "list registered checks",
	} {
		if !strings.Contains(usage, flagName) {
			t.Errorf("usage does not register %s:\n%s", flagName, usage)
			continue
		}
		if !strings.Contains(usage, mustMention) {
			t.Errorf("help for %s does not mention %q", flagName, mustMention)
		}
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, stderr.String())
	}
	for _, name := range lint.AnalyzerNames() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

func TestUnknownCheckIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "nosuchcheck"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-checks nosuchcheck) = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown check") {
		t.Errorf("stderr does not explain the unknown check: %s", stderr.String())
	}
}

// TestRunOnModule drives the full CLI against the real module from the
// repository root: the tree must be clean and the committed baseline must
// verify fresh.
func TestRunOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	root := moduleRoot(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-dir", root,
		"-baseline", filepath.Join(root, "mosvet-baseline.json"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run on module = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestStaleBaselineFails: drift between the tree's directives and the
// committed baseline must fail the run with exit 1.
func TestStaleBaselineFails(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	root := moduleRoot(t)
	stale := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(stale, []byte(`{"note":"test","suppressions":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", root, "-baseline", stale}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run with empty baseline = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "baseline is stale") {
		t.Errorf("stderr does not flag the stale baseline: %s", stderr.String())
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test binary's working directory")
		}
		dir = parent
	}
}
