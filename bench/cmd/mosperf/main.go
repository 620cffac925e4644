// Command mosperf runs the repository's benchmark. From the repository
// root:
//
//	bash bench/run.sh --workload sweep-walk --seed 1 --seconds 25 --trace 0
//
// builds mosperf and runs one workload (or, without --workload, all four),
// each in its own child process with GOMAXPROCS set to the core count. It
// prints every metric by name and unit, then, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics. It exits
// nonzero when any output check failed. --trace 1 makes a traced run that
// prints per-layer metrics instead and writes bench/out/spans-<workload>.json.
//
//	mosperf -out a.jsonl ...    append each workload's result record
//	mosperf -compare a.jsonl b.jsonl
//
// -compare prints each (workload, metric) median and spread of two result
// files and the change between them, judged against BENCHMARK.json's bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mosaic/bench"
)

// childTimeout bounds one workload process; a run must finish well inside
// the three minutes a benchmark invocation is allowed.
const childTimeout = 170 * time.Second

func main() {
	var (
		workload    = flag.String("workload", "all", "workload to run, or all")
		seed        = flag.Int64("seed", 0, "seed for the request mix, arrival times, and the layouts the checks replay")
		secs        = flag.Int("seconds", 25, "how long each workload measures, in seconds")
		traced      = flag.Int("trace", 0, "1 makes a traced run that prints per-layer metrics")
		out         = flag.String("out", "", "append each workload's result record to this JSON-lines file")
		compare     = flag.Bool("compare", false, "compare the two result files given as arguments")
		writeGolden = flag.Bool("write-golden", false, "record the run's counter digests in bench/testdata/golden.json instead of checking them")
		child       = flag.Bool("child", false, "run one workload in this process (used by mosperf itself)")
		mosd        = flag.String("mosd", "", "mosd binary (with -child)")
		workdir     = flag.String("workdir", "", "working directory for the workload's files (with -child)")
	)
	flag.Parse()
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "mosperf: "+format+"\n", args...) }

	root, err := findRoot()
	if err != nil {
		log("%v", err)
		os.Exit(2)
	}
	opts := bench.Options{
		Seed:    *seed,
		Budget:  time.Duration(*secs) * time.Second,
		Trace:   *traced == 1,
		SpanDir: filepath.Join(root, "bench", "out"),
		Mosd:    *mosd,
		WorkDir: *workdir,
	}
	switch {
	case *compare:
		err = runCompare(root, flag.Args())
	case *child:
		opts.Workload = *workload
		err = runChild(opts)
	default:
		err = runAll(opts, root, *workload, *out, *writeGolden)
	}
	if err != nil {
		log("%v", err)
		os.Exit(1)
	}
}

// findRoot returns the nearest directory at or above the working directory
// that holds the repository and its benchmark.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "bench", "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
				return d, nil
			}
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no repository with a bench/ module above %s", wd)
		}
	}
}

func runCompare(root string, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare wants two result files")
	}
	a, err := bench.LoadRecords(args[0])
	if err != nil {
		return err
	}
	b, err := bench.LoadRecords(args[1])
	if err != nil {
		return err
	}
	bounds, err := bench.LoadBounds(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	return bench.Compare(os.Stdout, a, b, bounds)
}

// runChild runs one workload in this process and prints its report as one
// JSON line.
func runChild(o bench.Options) error {
	rep, err := bench.Run(o)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", raw)
	return err
}

// runAll runs each selected workload in a child process, checks its
// digest against the golden file, prints its metrics, and ends with the
// result line.
func runAll(o bench.Options, root, workload, out string, writeGolden bool) error {
	var names []string
	for _, w := range bench.Workloads {
		if workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	build := filepath.Join(root, ".bench_build")
	mosdBin := filepath.Join(build, "bin", "mosd")
	cmd := exec.Command("go", "build", "-o", mosdBin, "./cmd/mosd")
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building mosd: %w", err)
	}
	procs := runtime.NumCPU()
	host, err := bench.Fingerprint(root, procs)
	if err != nil {
		return err
	}
	fmt.Printf("host: cores=%d gomaxprocs=%d cpu=%q go=%s kernel=%s go_loc=%d\n",
		host.Cores, host.GOMAXPROCS, host.CPU, host.Go, host.Kernel, host.GoLOC)
	goldenPath := filepath.Join(root, "bench", "testdata", "golden.json")
	golden := make(map[string]string)
	if raw, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
	} else if !writeGolden {
		return err
	}

	var reps []*bench.Report
	for _, name := range names {
		o.Workload = name
		o.Mosd = mosdBin
		o.WorkDir = filepath.Join(build, "work", name+"-"+strconv.Itoa(os.Getpid()))
		rep, err := spawn(o, procs)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.Host = &host
		if writeGolden {
			golden[name] = rep.Digest
		} else {
			want, ok := golden[name]
			rep.Attempted++
			if !ok || want != rep.Digest {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("counter digest %s, golden %q", rep.Digest, want))
			}
		}
		printReport(os.Stdout, rep)
		if out != "" {
			if err := appendRecord(out, rep); err != nil {
				return err
			}
		}
		reps = append(reps, rep)
	}
	if writeGolden {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, correct, err := resultLine(reps)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !correct {
		return errors.New("output checks failed")
	}
	return nil
}

// spawn runs one workload in a child process and returns its report.
func spawn(o bench.Options, procs int) (*bench.Report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.WorkDir)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := 0
	if o.Trace {
		trace = 1
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", o.Workload,
		"-seed", strconv.FormatInt(o.Seed, 10), "-seconds", strconv.Itoa(int(o.Budget/time.Second)),
		"-trace", strconv.Itoa(trace), "-mosd", o.Mosd, "-workdir", o.WorkDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep bench.Report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("workload process report: %w", err)
	}
	return &rep, nil
}

// printReport prints one workload's metrics for people.
func printReport(w io.Writer, rep *bench.Report) {
	fmt.Fprintf(w, "%s seed=%d traced=%t attempted=%d failed=%d digest=%s\n",
		rep.Workload, rep.Seed, rep.Traced, rep.Attempted, rep.Failed, rep.Digest)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, v := range rep.Metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", v.Name, v.Value, v.Unit)
	}
	for _, v := range rep.Detail {
		fmt.Fprintf(w, "  (%s) %*s %14.6g %s\n", v.Name, 29-len(v.Name), "", v.Value, v.Unit)
	}
}

func appendRecord(path string, rep *bench.Report) error {
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine renders the final JSON object. With more than one workload,
// metric names carry a "<workload>/" prefix.
func resultLine(reps []*bench.Report) ([]byte, bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, rep := range reps {
		res.Correct = res.Correct && rep.Correct()
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		for _, v := range rep.Metrics {
			name := v.Name
			if len(reps) > 1 {
				name = rep.Workload + "/" + name
			}
			res.Metrics[name] = value{v.Value, v.Unit}
		}
	}
	raw, err := json.Marshal(res)
	return raw, res.Correct, err
}
