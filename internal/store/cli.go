package store

import (
	"os"
	"os/signal"
	"syscall"
)

// HandleSignals installs a SIGINT/SIGTERM handler that releases every
// lockfile the given stores still hold, runs onSignal (the binary's
// teardown; may be nil) and exits with the conventional 128+signal
// status. Without it an interrupt mid-publish leaves lockfiles other
// processes must wait staleAge to reclaim. Binaries with several
// stores (result cache plus checkpoint store) pass them all — one
// handler, one exit. The returned stop func uninstalls the handler so
// a normal exit path wins. Safe with nil stores.
func HandleSignals(onSignal func(os.Signal), stores ...*Store) (stop func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			for _, s := range stores {
				s.ReleaseLocks()
			}
			if onSignal != nil {
				onSignal(sig)
			}
			code := 128 + int(syscall.SIGTERM)
			if sig == os.Interrupt {
				code = 128 + int(syscall.SIGINT)
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
