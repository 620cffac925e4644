package bench

import (
	"bufio"
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Host fingerprints the machine and the code a result was measured on.
// Results compare only when their Key matches; GoLOC tracks code size next
// to the timings.
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// GoLOC counts the lines of the repository's non-test Go files outside
	// the benchmark's own directory.
	GoLOC int `json:"go_loc"`
}

// Fingerprint describes this host and the repository at root. gomaxprocs
// is the value the workload processes run with.
func Fingerprint(root string, gomaxprocs int) (Host, error) {
	loc, err := countGoLines(root)
	if err != nil {
		return Host{}, err
	}
	return Host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GoLOC:      loc,
	}, nil
}

// Key identifies the host a result is comparable on: everything but the
// code size.
func (h Host) Key() string {
	return strings.Join([]string{strconv.Itoa(h.Cores), strconv.Itoa(h.GOMAXPROCS), h.CPU, h.Go, h.Kernel}, "|")
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	sc := bufio.NewScanner(strings.NewReader(readFile("/proc/cpuinfo")))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// countGoLines counts the lines of non-test .go files under root, skipping
// the benchmark directory, testdata, vendor, and dot or underscore
// directories, as the go tool does.
func countGoLines(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "bench" && filepath.Dir(path) == filepath.Clean(root) ||
				name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(b, []byte{'\n'})
		return nil
	})
	return lines, err
}

// peakRSSMB reads this process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	sc := bufio.NewScanner(strings.NewReader(readFile("/proc/self/status")))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
