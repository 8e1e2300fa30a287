// Command expd is the distributed experiment daemon: an HTTP front-end
// over the memoising experiments.Runner (DESIGN.md §13). Clients (the
// other binaries with -server) post fully keyed run requests; expd
// deduplicates them through the same in-memory memo and persistent
// store layers local runs use, simulates misses, and returns
// checksummed result frames. Fidelity travels per request, not per daemon: a
// client's -fidelity/-sample-sets choice arrives inside the run key
// (the sample stride is part of the scale fingerprint), so one daemon
// serves exact, fast-forward and set-sampled runs without aliasing. SIGINT/SIGTERM drains: in-flight simulations
// complete and are served, new requests get 503, then lockfiles are
// released and store stats flushed.
//
// Usage:
//
//	expd [-addr 127.0.0.1:9190] [-addr-file FILE] [-workers N]
//	     [-max-concurrent N] [-drain-timeout 30s] [persistence flags]
//
// The persistence flags (-cache-dir, -checkpoint-dir,
// -checkpoint-every) are documented in internal/cliutil; expd takes no
// other shared flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/service"
)

func main() {
	env := cliutil.NewPersistence("expd")
	addr := flag.String("addr", "127.0.0.1:9190", "listen address (host:0 picks a free port)")
	addrFile := flag.String("addr-file", "",
		"write the bound address to this file once listening (for -addr with port 0)")
	workers := flag.Int("workers", cliutil.DefaultWorkers(), "concurrent simulations per request")
	maxConcurrent := flag.Int("max-concurrent", cliutil.DefaultWorkers(),
		"run requests executing simultaneously (the rest queue)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight requests before giving up")
	cfg := env.Parse()
	w, err := cliutil.Workers(*workers)
	if err != nil {
		env.Fatal(err)
	}
	mc, err := cliutil.Workers(*maxConcurrent)
	if err != nil {
		env.Fatal(fmt.Errorf("invalid -max-concurrent=%d: must be >= 1", *maxConcurrent))
	}
	env.Open(&cfg)
	defer env.Close()

	srv := service.NewServer(service.ServerOptions{
		Workers: w, MaxConcurrent: mc, Store: cfg.Store, Checkpoints: cfg.Checkpoints, Logf: env.Logf,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		env.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			env.Fatal(err)
		}
	}
	env.Logf("serving on http://%s (cache-dir=%q workers=%d)", bound, flag.Lookup("cache-dir").Value, w)

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		env.Logf("%v — draining (in-flight requests complete; again to force)", sig)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			env.Logf("second signal — forcing exit")
			cancel()
		}()
		if err := httpSrv.Shutdown(ctx); err != nil {
			env.Logf("drain incomplete: %v", err)
		}
		cancel()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			env.Fatal(err)
		}
	}

	// Whatever path got us here, the deferred Close leaves the shared
	// caches clean: no live lockfiles, stats on stderr for the operator.
	p := srv.Snapshot()
	env.Logf("served %d requests (%d completed, %d failed), %d simulations",
		p.Requests, p.RunsCompleted, p.RunsFailed, p.SimulationsStarted)
}
