package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mosaic/internal/serve"
)

// daemon is one mosd process the benchmark started, with a one-connection
// control client for jobs, readiness and metrics.
type daemon struct {
	cmd    *exec.Cmd
	logf   *os.File
	base   string
	ctl    *http.Client
	exited chan struct{}
}

// startDaemon runs mosd on a free loopback port with its files under dir
// and waits until it serves /readyz.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "mosd.log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-reload-interval", "0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting mosd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		logf:   logf,
		ctl:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute},
		exited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState in stop
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			if code, err := d.do("GET", "/readyz", nil, nil); err == nil && code == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("mosd exited during start-up; see %s", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("mosd did not become ready within 30s")
		}
	}
}

// stop sends SIGTERM, waits for the drain (killing after ten seconds), and
// returns mosd's peak resident set size.
func (d *daemon) stop() float64 {
	d.ctl.CloseIdleConnections()
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.logf.Close()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// do sends one control request and decodes a JSON reply into out when out
// is non-nil and the status is 2xx.
func (d *daemon) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := d.ctl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// jobs lists every job mosd knows.
func (d *daemon) jobs() ([]serve.Job, error) {
	var list struct {
		Jobs []serve.Job `json:"jobs"`
	}
	code, err := d.do("GET", "/v1/jobs", nil, &list)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/jobs: status %d", code)
	}
	return list.Jobs, err
}

// jobPoll is how often job state is polled; job wall times resolve to it.
const jobPoll = 10 * time.Millisecond

// awaitJobs polls the job list until every job in ids is terminal and
// returns each job's final view and the time it was first seen terminal.
func (d *daemon) awaitJobs(ids []string, timeout time.Duration) (map[string]serve.Job, map[string]time.Time, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	final := make(map[string]serve.Job, len(ids))
	seen := make(map[string]time.Time, len(ids))
	deadline := time.Now().Add(timeout)
	for len(final) < len(ids) {
		list, err := d.jobs()
		if err != nil {
			return nil, nil, err
		}
		now := time.Now()
		for _, j := range list {
			if _, done := final[j.ID]; done || !want[j.ID] {
				continue
			}
			switch j.State {
			case serve.JobDone, serve.JobFailed, serve.JobCanceled:
				final[j.ID] = j
				seen[j.ID] = now
			}
		}
		if len(final) < len(ids) {
			if now.After(deadline) {
				return nil, nil, fmt.Errorf("jobs not finished after %v", timeout)
			}
			time.Sleep(jobPoll)
		}
	}
	return final, seen, nil
}

// submit posts one job spec and returns the job ID.
func (d *daemon) submit(spec serve.JobSpec) (string, error) {
	var job serve.Job
	code, err := d.do("POST", "/v1/jobs", spec, &job)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return "", fmt.Errorf("POST /v1/jobs %s@%s: status %d", spec.Workload, spec.Platform, code)
	}
	return job.ID, nil
}

// cpuTime returns how long mosd's threads have run on a CPU, summed from
// the scheduler's per-thread statistics, which count in nanoseconds where
// the process's utime and stime count in 10 ms ticks.
func (d *daemon) cpuTime() (time.Duration, error) {
	dir := filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// metrics scrapes /metrics into a map from sample name (with labels) to
// value.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.ctl.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
