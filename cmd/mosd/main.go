// Command mosd is the prediction-serving daemon: an HTTP/JSON API over
// the repo's runtime-model registry and measurement pipeline.
//
//	mosd -addr :7077 -registry ./models -tracedir ./traces
//
// POST /v1/predict evaluates a trained model (Mosmodel by default) for a
// (workload, platform) pair in microseconds; POST /v1/jobs runs the
// measurement sweeps that train those models as bounded background work.
// /healthz, /readyz, and Prometheus-style /metrics make it deployable
// behind ordinary infrastructure. SIGTERM and SIGINT drain gracefully:
// in-flight requests and running jobs finish, queued jobs are canceled,
// and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mosaic/internal/serve"
	"mosaic/internal/serve/registry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "listen address (host:port; :0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the actual listen address to this file once serving (for scripts wrapping :0)")
		regDir   = flag.String("registry", "", "directory of trained-model files (empty: in-memory only)")
		traceDir = flag.String("tracedir", "", "directory for caching workload traces across jobs and restarts")
		workers  = flag.Int("job-workers", 2, "concurrently running sweep jobs")
		queue    = flag.Int("job-queue", 16, "sweep jobs allowed to wait; beyond this, submissions get 429")
		parallel = flag.Int("parallelism", 0, "worker goroutines inside each job (default: GOMAXPROCS)")
		reload   = flag.Duration("reload-interval", 10*time.Second, "how often to poll the registry directory for retrained models (duration, e.g. 10s or 500ms; 0 disables)")
		drainFor = flag.Duration("drain-timeout", 10*time.Minute, "how long shutdown waits for running jobs before canceling them (duration, e.g. 10m)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("mosd ")

	if err := run(*addr, *addrFile, *regDir, *traceDir, *workers, *queue, *parallel, *reload, *drainFor); err != nil {
		log.Fatal(err)
	}
}

func run(addr, addrFile, regDir, traceDir string, workers, queue, parallel int, reload, drainFor time.Duration) error {
	reg, err := registry.Open(regDir)
	if err != nil {
		return fmt.Errorf("opening registry: %w", err)
	}
	exec := &serve.SweepExecutor{
		TraceDir:    traceDir,
		Parallelism: parallel,
		Registry:    reg,
	}
	srv := serve.NewServer(serve.ServerConfig{
		Registry:      reg,
		Executor:      exec.Run,
		PoolIdle:      exec.PoolIdle,
		JobWorkers:    workers,
		JobQueueDepth: queue,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if reload > 0 && regDir != "" {
		go reg.Watch(ctx, reload)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("serving on http://%s (registry %q, %d trained pairs, %d job workers, GOMAXPROCS=%d)",
		ln.Addr(), regDir, reg.Len(), workers, runtime.GOMAXPROCS(0))

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("signal received; draining (up to %v for running jobs)", drainFor)

	drainCtx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	// Stop the listener first so load balancers fail over, then drain jobs.
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("job drain incomplete: %v", err)
	}
	log.Printf("drained; exiting")
	return nil
}
