package main

import (
	"bytes"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startExpd launches a real expd on a free port and waits for
// readiness. It returns the base URL and the running process.
func startExpd(t *testing.T, bin, cacheDir string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			base := "http://" + strings.TrimSpace(string(data))
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return base, cmd
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("expd never became ready; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runClient(bin string, args ...string) ([]byte, []byte, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.Bytes(), stderr.Bytes(), err
}

// TestServiceEndToEnd is the tentpole's acceptance test with real
// processes: a figures client against a healthy expd, against an expd
// SIGKILLed mid-run, and two clients racing on one server must all
// emit stdout byte-identical to the serverless baseline.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real server and client processes")
	}
	expd, figures := binary(t, "expd"), binary(t, "figures")
	args := []string{"-fig", "5", "-scale", "unit"}

	baseline, _, err := runClient(figures, args...)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	t.Run("healthy-server", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		base, _ := startExpd(t, expd, cacheDir)
		out, errOut, err := runClient(figures, append(args, "-server", base)...)
		if err != nil {
			t.Fatalf("client run: %v\n%s", err, errOut)
		}
		if !bytes.Equal(out, baseline) {
			t.Fatal("healthy-server output differs from serverless baseline")
		}
		// The client must have been served remotely, not have quietly
		// computed everything itself.
		se := string(errOut)
		if !strings.Contains(se, "local-fallbacks=0") || strings.Contains(se, "remote-hits=0") {
			t.Fatalf("client did not run remotely:\n%s", se)
		}
	})

	t.Run("server-killed-mid-sweep", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		base, srv := startExpd(t, expd, cacheDir)
		// SIGKILL: no drain, no goodbye — the hard half of the
		// degradation ladder. Kill concurrently with the run so some
		// requests succeed and the rest fall back.
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(300 * time.Millisecond)
			srv.Process.Kill()
			srv.Wait()
		}()
		out, errOut, err := runClient(figures, append(args, "-server", base)...)
		<-done
		if err != nil {
			t.Fatalf("client run with killed server: %v\n%s", err, errOut)
		}
		if !bytes.Equal(out, baseline) {
			t.Fatal("killed-server output differs from serverless baseline")
		}
	})

	t.Run("two-clients-one-server", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		base, _ := startExpd(t, expd, cacheDir)
		var wg sync.WaitGroup
		outs := make([][]byte, 2)
		errOuts := make([][]byte, 2)
		errs := make([]error, 2)
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], errOuts[i], errs[i] = runClient(figures, append(args, "-server", base)...)
			}()
		}
		wg.Wait()
		for i := range outs {
			if errs[i] != nil {
				t.Fatalf("racing client %d: %v\n%s", i, errs[i], errOuts[i])
			}
			if !bytes.Equal(outs[i], baseline) {
				t.Fatalf("racing client %d output differs from baseline", i)
			}
		}
	})
}

// TestCheckpointResumeEndToEnd is the crash-resume acceptance test
// with real processes: a figures sweep is SIGKILLed mid-run, then
// rerun with the same -checkpoint-dir. The rerun must complete, reuse
// the dead process's checkpoints (resumed-from-checkpoint on stderr),
// and emit stdout byte-identical to a checkpointless baseline.
func TestCheckpointResumeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real figure-sweep processes")
	}
	figures := binary(t, "figures")
	args := []string{"-fig", "5", "-scale", "unit"}

	baseline, _, err := runClient(figures, args...)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	ckptArgs := append(args, "-checkpoint-dir", ckptDir, "-checkpoint-every", "30000")

	// SIGKILL mid-sweep: no drain, no deferred stats, no lock release.
	victim := exec.Command(figures, ckptArgs...)
	var victimErr bytes.Buffer
	victim.Stderr = &victimErr
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	victim.Process.Kill()
	if err := victim.Wait(); err == nil {
		// The sweep outran the kill; the rerun below still proves
		// checkpoint reuse, just not the torn-process half.
		t.Log("sweep finished before the kill landed; resume still exercised")
	}
	entries, err := os.ReadDir(filepath.Join(ckptDir, "entries"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("killed run published no checkpoints (%v); victim stderr:\n%s", err, victimErr.String())
	}

	out, errOut, err := runClient(figures, ckptArgs...)
	if err != nil {
		t.Fatalf("rerun after kill -9: %v\n%s", err, errOut)
	}
	if !bytes.Equal(out, baseline) {
		t.Fatal("resumed output differs from checkpointless baseline")
	}
	se := string(errOut)
	if !strings.Contains(se, "resumed-from-checkpoint") && !strings.Contains(se, "warmups-resumed=") {
		t.Fatalf("rerun shows no checkpoint reuse:\n%s", se)
	}
	if strings.Contains(se, "warmups-resumed=0 midrun-resumed=0") {
		t.Fatalf("rerun resumed nothing from the killed process:\n%s", se)
	}
}

// TestExpdGracefulDrain: SIGTERM must drain and exit cleanly — zero
// exit status, stats flushed, and no live lockfiles left in the cache.
func TestExpdGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	expd, figures := binary(t, "expd"), binary(t, "figures")
	cacheDir := filepath.Join(t.TempDir(), "cache")
	base, srv := startExpd(t, expd, cacheDir)

	// Give the server some real work first so runners, the store and
	// its locks have all been exercised.
	if _, errOut, err := runClient(figures, "-fig", "5", "-scale", "unit", "-server", base); err != nil {
		t.Fatalf("warmup client: %v\n%s", err, errOut)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- srv.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("drained expd exited non-zero: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("expd never exited after SIGTERM")
	}
	locks, err := os.ReadDir(filepath.Join(cacheDir, "locks"))
	if err == nil && len(locks) != 0 {
		t.Fatalf("drained expd left lockfiles: %v", locks)
	}
}
