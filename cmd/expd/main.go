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
//	expd [-addr 127.0.0.1:9190] [-addr-file FILE] [-cache-dir DIR]
//	     [-workers N] [-max-concurrent N] [-drain-timeout 30s]
//	     [-checkpoint-dir DIR] [-checkpoint-every N]
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
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9190", "listen address (host:0 picks a free port)")
	addrFile := flag.String("addr-file", "",
		"write the bound address to this file once listening (for -addr with port 0)")
	cacheDir := flag.String("cache-dir", "",
		"persistent result cache directory shared across runs and processes (empty = in-memory only)")
	workers := flag.Int("workers", cliutil.DefaultWorkers(), "concurrent simulations per request")
	maxConcurrent := flag.Int("max-concurrent", cliutil.DefaultWorkers(),
		"run requests executing simultaneously (the rest queue)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight requests before giving up")
	ckptDir := flag.String("checkpoint-dir", "",
		"checkpoint directory: warm-up prefixes and mid-run state persist here, and a rerun resumes from the last valid checkpoint (empty = in-memory warm-up sharing only)")
	ckptEvery := flag.Int64("checkpoint-every", 0,
		"measured instructions between mid-run checkpoints (0 = warm-up checkpoints only; requires -checkpoint-dir)")
	flag.Parse()

	w, err := cliutil.Workers(*workers)
	if err != nil {
		fatal(err)
	}
	mc, err := cliutil.Workers(*maxConcurrent)
	if err != nil {
		fatal(fmt.Errorf("invalid -max-concurrent=%d: must be >= 1", *maxConcurrent))
	}
	every, err := cliutil.Checkpointing(*ckptDir, *ckptEvery)
	if err != nil {
		fatal(err)
	}
	if _, err := cliutil.CacheDir(*cacheDir); err != nil {
		fatal(err)
	}
	st := store.OpenCLI(*cacheDir, "expd")
	ckpts, ckptStore := cliutil.OpenCheckpoints(*ckptDir, every, "expd")

	srv := service.NewServer(service.ServerOptions{
		Workers: w, MaxConcurrent: mc, Store: st, Checkpoints: ckpts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "expd: "+format+"\n", args...)
		},
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "expd: serving on http://%s (cache-dir=%q workers=%d)\n",
		bound, *cacheDir, w)

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "expd: %v — draining (in-flight requests complete; again to force)\n", sig)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			fmt.Fprintln(os.Stderr, "expd: second signal — forcing exit")
			cancel()
		}()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "expd: drain incomplete: %v\n", err)
		}
		cancel()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}

	// Whatever path got us here, leave the shared caches clean: no live
	// lockfiles, stats on stderr for the operator.
	st.ReleaseLocks()
	st.ReportStats("expd")
	ckptStore.ReleaseLocks()
	ckpts.ReportStats("expd")
	ckptStore.ReportStats("expd: checkpoints")
	p := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "expd: served %d requests (%d completed, %d failed), %d simulations\n",
		p.Requests, p.RunsCompleted, p.RunsFailed, p.SimulationsStarted)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "expd:", err)
	os.Exit(1)
}
