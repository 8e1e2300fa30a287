package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestLockContentionGoroutines: two goroutines contend for one key's
// lock; the loser waits with bounded exponential backoff (asserted via
// the recorded sleep schedule) and wins after the holder releases.
func TestLockContentionGoroutines(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t)
	opts.LockTimeout = 2 * time.Second
	s := openTest(t, dir, opts)

	var mu sync.Mutex
	var sleeps []time.Duration
	orig := sleepFn
	sleepFn = func(d time.Duration) {
		mu.Lock()
		sleeps = append(sleeps, d)
		mu.Unlock()
		orig(d)
	}
	defer func() { sleepFn = orig }()

	release, err := s.acquireLock("contended")
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		rel, err := s.acquireLock("contended")
		if err == nil {
			rel()
		}
		acquired <- err
	}()
	// Hold long enough for several backoff rounds.
	time.Sleep(40 * time.Millisecond)
	release()
	if err := <-acquired; err != nil {
		t.Fatalf("second goroutine never acquired: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(sleeps) < 2 {
		t.Fatalf("expected several backoff sleeps, saw %v", sleeps)
	}
	for i := 1; i < len(sleeps); i++ {
		if sleeps[i] < sleeps[i-1] {
			t.Fatalf("backoff not monotone: %v", sleeps)
		}
	}
	if sleeps[0] != time.Millisecond {
		t.Fatalf("backoff must start at 1ms, started at %v", sleeps[0])
	}
	for _, d := range sleeps {
		if d > 100*time.Millisecond {
			t.Fatalf("backoff exceeded its 100ms bound: %v", sleeps)
		}
	}
}

// TestLockTimeoutIsBounded: with a live in-process holder that never
// releases, acquireLock gives up within ~LockTimeout instead of
// spinning forever.
func TestLockTimeoutIsBounded(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t)
	opts.LockTimeout = 60 * time.Millisecond
	s := openTest(t, dir, opts)
	release, err := s.acquireLock("held")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	if _, err := s.acquireLock("held"); err != errLockTimeout {
		t.Fatalf("err = %v, want errLockTimeout", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("timeout took %v, bound is ~60ms + final backoff", took)
	}
}

// TestPIDReuseGuard: a lock naming a live PID but the wrong boot-time
// ticks is a recycled PID and is reclaimed; with the right ticks (and
// a different live process) it is held.
func TestPIDReuseGuard(t *testing.T) {
	if _, ok := bootTicksOf(os.Getpid()); !ok {
		t.Skip("/proc start-time introspection unavailable")
	}
	dir := t.TempDir()
	s := openTest(t, dir, testOptions(t))
	lockPath := filepath.Join(dir, "locks", "x.lock")

	// A live non-self process with recorded ticks: init (pid 1).
	ticks, ok := bootTicksOf(1)
	if ok && processAlive(1) {
		write := func(ticks uint64) {
			if err := os.WriteFile(lockPath,
				[]byte(fmt.Sprintf(`{"pid":1,"boot_ticks":%d}`, ticks)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(ticks)
		if s.lockIsStale(lockPath) {
			t.Fatal("lock of a live process with matching start time reclaimed")
		}
		write(ticks + 12345)
		if !s.lockIsStale(lockPath) {
			t.Fatal("recycled-PID lock (start-time mismatch) not reclaimed")
		}
	}

	// Our own PID with our own start ticks: another goroutine of this
	// process holds it — never stale.
	ownTicks, ownOK := bootTicksOf(os.Getpid())
	if !ownOK {
		t.Fatal("bootTicksOf(self) failed after /proc probe succeeded")
	}
	writeOwn := func(ticks uint64) {
		if err := os.WriteFile(lockPath,
			[]byte(fmt.Sprintf(`{"pid":%d,"boot_ticks":%d}`, os.Getpid(), ticks)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeOwn(ownTicks)
	if s.lockIsStale(lockPath) {
		t.Fatal("own-process lock with matching start time considered stale")
	}

	// Our own PID with mismatched ticks: a lock this process took
	// always carries the current start time, so the mismatch proves
	// the file survived from a previous boot that reused our PID —
	// stale, reclaimable immediately.
	writeOwn(1)
	if !s.lockIsStale(lockPath) {
		t.Fatal("own-PID lock from a previous boot (start-time mismatch) not reclaimed")
	}

	// Our own PID with no recorded ticks (a lock written where /proc
	// was unavailable): no proof of a previous boot — treat as held.
	if err := os.WriteFile(lockPath,
		[]byte(fmt.Sprintf(`{"pid":%d,"boot_ticks":0}`, os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.lockIsStale(lockPath) {
		t.Fatal("own-process lock without start ticks considered stale")
	}
}

// helperEnv points TestHelperLockHolder at a store dir; unset, the
// helper is skipped in normal runs.
const helperEnv = "STORE_LOCK_HELPER_DIR"

// TestHelperLockHolder is the re-exec'd child of the cross-process
// tests: it takes the contended lock, announces it on stdout, holds it
// briefly, and releases.
func TestHelperLockHolder(t *testing.T) {
	dir := os.Getenv(helperEnv)
	if dir == "" {
		t.Skip("helper process entry point")
	}
	s, err := Open(dir, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	release, err := s.acquireLock("contended")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("LOCK_HELD")
	os.Stdout.Sync()
	time.Sleep(600 * time.Millisecond)
	release()
}

// TestLockCrossProcess is the two-process half of the contention
// satellite: a child process holds the lock; this process must NOT
// reclaim it (live owner) and must time out — then acquire cleanly
// once the child exits.
func TestLockCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestHelperLockHolder$", "-test.v")
	cmd.Env = append(os.Environ(), helperEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()

	held := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "LOCK_HELD" {
				held <- true
				return
			}
		}
		held <- false
	}()
	select {
	case ok := <-held:
		if !ok {
			t.Fatal("helper exited without taking the lock")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("helper never announced the lock")
	}

	opts := testOptions(t)
	opts.LockTimeout = 100 * time.Millisecond
	s := openTest(t, dir, opts)
	if _, err := s.acquireLock("contended"); err != errLockTimeout {
		t.Fatalf("acquire against a live foreign holder: err = %v, want timeout (never reclaim a live lock)", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("helper failed: %v", err)
	}
	// Holder exited and released: acquisition must now succeed.
	release, err := s.acquireLock("contended")
	if err != nil {
		t.Fatalf("acquire after holder exit: %v", err)
	}
	release()
}

// TestTornLockAgeOutBoundary pins the reclaim rule for torn lockfiles
// (a writer crashed between create and write): they are stale strictly
// *after* staleAge, judged by mtime. Just-younger torn locks are held;
// just-older ones are reclaimed; and the rule applies whether the
// content is garbage bytes, empty, or well-formed JSON without a
// usable PID.
func TestTornLockAgeOutBoundary(t *testing.T) {
	const staleAge = time.Hour
	const margin = 2 * time.Second
	contents := map[string][]byte{
		"garbage":  []byte("not json at all"),
		"empty":    nil,
		"zero-pid": []byte(`{"pid":0,"boot_ticks":77}`),
		"neg-pid":  []byte(`{"pid":-4,"boot_ticks":77}`),
	}
	for name, content := range contents {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := testOptions(t)
			opts.StaleAge = staleAge
			s := openTest(t, dir, opts)
			lockPath := filepath.Join(dir, "locks", "torn.lock")
			write := func(age time.Duration) {
				if err := os.WriteFile(lockPath, content, 0o644); err != nil {
					t.Fatal(err)
				}
				when := time.Now().Add(-age)
				if err := os.Chtimes(lockPath, when, when); err != nil {
					t.Fatal(err)
				}
			}
			// Younger than the boundary by a margin that dwarfs test
			// runtime: held.
			write(staleAge - margin)
			if s.lockIsStale(lockPath) {
				t.Fatal("torn lock younger than staleAge reclaimed")
			}
			// Older than the boundary: reclaimable.
			write(staleAge + margin)
			if !s.lockIsStale(lockPath) {
				t.Fatal("torn lock older than staleAge not reclaimed")
			}
		})
	}
}

// TestReleaseLocksDropsHeld: ReleaseLocks removes exactly the
// lockfiles this store still holds, tolerates already-released locks,
// and is nil-safe — the contract HandleSignals relies on.
func TestReleaseLocksDropsHeld(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, testOptions(t))
	rel1, err := s.acquireLock("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.acquireLock("b"); err != nil {
		t.Fatal(err)
	}
	rel1() // "a" released normally; only "b" is still held
	s.ReleaseLocks()
	entries, err := os.ReadDir(filepath.Join(dir, "locks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("locks left after ReleaseLocks: %v", entries)
	}
	// Idempotent, and a released store still acquires.
	s.ReleaseLocks()
	rel, err := s.acquireLock("a")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	(*Store)(nil).ReleaseLocks()
}

// signalEnv points TestHelperSignalHolder at a store dir; unset, the
// helper is skipped in normal runs.
const signalEnv = "STORE_SIGNAL_HELPER_DIR"

// TestHelperSignalHolder is the re-exec'd child of the interrupt
// test: it installs HandleSignals, takes two locks, announces, and
// waits to be killed.
func TestHelperSignalHolder(t *testing.T) {
	dir := os.Getenv(signalEnv)
	if dir == "" {
		t.Skip("helper process entry point")
	}
	s, err := Open(dir, Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	stop := HandleSignals(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "helper: interrupted (%v)\n", sig)
	}, s)
	defer stop()
	if _, err := s.acquireLock("one"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.acquireLock("two"); err != nil {
		t.Fatal(err)
	}
	fmt.Println("LOCKS_HELD")
	os.Stdout.Sync()
	time.Sleep(30 * time.Second) // parent SIGTERMs long before this
	t.Fatal("never signalled")
}

// TestInterruptReleasesLocks is the satellite's acceptance test: a
// process holding store locks that is interrupted (SIGTERM) must
// release them on the way out — a fresh process acquires the same
// locks immediately, with no staleness wait.
func TestInterruptReleasesLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestHelperSignalHolder$", "-test.v")
	cmd.Env = append(os.Environ(), signalEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	held := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "LOCKS_HELD" {
				held <- true
				return
			}
		}
		held <- false
	}()
	select {
	case ok := <-held:
		if !ok {
			t.Fatal("helper exited without taking its locks")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("helper never announced its locks")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 128+int(syscall.SIGTERM) {
		t.Fatalf("helper exit: err=%v stderr=%q, want exit status %d",
			err, stderr.String(), 128+int(syscall.SIGTERM))
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("helper stderr %q missing interrupt notice", stderr.String())
	}

	// The whole point: no live locks left behind. A fresh store (with
	// an hour-long staleness window, so reclaim can't paper over a
	// leak) must acquire both locks instantly.
	entries, err := os.ReadDir(filepath.Join(dir, "locks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("interrupted helper left lockfiles behind: %v", entries)
	}
	opts := testOptions(t)
	opts.StaleAge = time.Hour
	opts.LockTimeout = 50 * time.Millisecond
	s := openTest(t, dir, opts)
	for _, name := range []string{"one", "two"} {
		rel, err := s.acquireLock(name)
		if err != nil {
			t.Fatalf("acquire %q after interrupt: %v", name, err)
		}
		rel()
	}
}
