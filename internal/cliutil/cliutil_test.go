package cliutil

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func TestScale(t *testing.T) {
	cases := []struct {
		name    string
		wantErr string
	}{
		{"unit", ""},
		{"test", ""},
		{"full", ""},
		{"", `unknown scale ""`},
		{"Test", `unknown scale "Test"`},
		{"huge", `unknown scale "huge"`},
	}
	for _, tc := range cases {
		sc, err := Scale(tc.name)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("Scale(%q): unexpected error %v", tc.name, err)
			} else if sc.Name == "" {
				t.Errorf("Scale(%q): unnamed scale %+v", tc.name, sc)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Scale(%q): error %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestFidelity(t *testing.T) {
	cases := []struct {
		name string
		want sim.Fidelity
		ok   bool
	}{
		{"exact", sim.FidelityExact, true},
		{"fastforward", sim.FidelityFastForward, true},
		{"set-sampled", sim.FidelitySetSampled, true},
		{"", 0, false},
		{"Exact", 0, false},
		{"fast", 0, false},
	}
	for _, tc := range cases {
		fid, err := Fidelity(tc.name)
		if tc.ok != (err == nil) {
			t.Errorf("Fidelity(%q): err=%v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && fid != tc.want {
			t.Errorf("Fidelity(%q) = %v, want %v", tc.name, fid, tc.want)
		}
	}
}

func TestWorkers(t *testing.T) {
	if n := DefaultWorkers(); n < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", n)
	}
	cases := []struct {
		n  int
		ok bool
	}{
		{1, true},
		{8, true},
		{DefaultWorkers(), true},
		{0, false},
		{-1, false},
		{-100, false},
	}
	for _, tc := range cases {
		got, err := Workers(tc.n)
		if tc.ok != (err == nil) {
			t.Errorf("Workers(%d): err=%v, want ok=%v", tc.n, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.n {
			t.Errorf("Workers(%d) = %d, want identity", tc.n, got)
		}
		if !tc.ok && !strings.Contains(err.Error(), "-workers") {
			t.Errorf("Workers(%d): error %q does not name the flag", tc.n, err)
		}
	}
}

func TestSampleSets(t *testing.T) {
	cases := []struct {
		k       int
		fid     sim.Fidelity
		want    int
		wantErr string
	}{
		{0, sim.FidelityExact, 0, ""},
		{0, sim.FidelityFastForward, 0, ""},
		{0, sim.FidelitySetSampled, sim.DefaultSampleStride, ""}, // default resolved here
		{8, sim.FidelitySetSampled, 8, ""},
		{1, sim.FidelitySetSampled, 1, ""},
		{64, sim.FidelitySetSampled, 64, ""},
		{8, sim.FidelityExact, 0, "requires -fidelity=set-sampled"},
		{8, sim.FidelityFastForward, 0, "requires -fidelity=set-sampled"},
		{3, sim.FidelitySetSampled, 0, "power of two"},
		{-8, sim.FidelitySetSampled, 0, "power of two"},
	}
	for _, tc := range cases {
		got, err := SampleSets(tc.k, tc.fid)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("SampleSets(%d, %v): unexpected error %v", tc.k, tc.fid, err)
			} else if got != tc.want {
				t.Errorf("SampleSets(%d, %v) = %d, want %d", tc.k, tc.fid, got, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("SampleSets(%d, %v): error %v, want containing %q", tc.k, tc.fid, err, tc.wantErr)
		}
	}
}

// TestProbeWritableFailsFast pins the startup contract of the
// persistence flags: a directory that cannot exist — here a path
// beneath a regular file, which fails ENOTDIR even for root — is a
// flag error at parse time, not a silent degradation at cycle 0.
func TestProbeWritableFailsFast(t *testing.T) {
	if err := ProbeWritable("", "-cache-dir"); err != nil {
		t.Fatalf("unset flag must pass, got %v", err)
	}

	good := t.TempDir() + "/fresh/nested"
	if err := ProbeWritable(good, "-cache-dir"); err != nil {
		t.Fatalf("creatable directory rejected: %v", err)
	}

	file := t.TempDir() + "/plain"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := file + "/sub"
	err := ProbeWritable(bad, "-checkpoint-dir")
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("path beneath a regular file: error %v, want naming the flag", err)
	}
	for _, flagName := range []string{"-checkpoint-dir", "-cache-dir"} {
		e, _ := testEnv(t, Flags{}, flagName, bad)
		cfg, err := e.validate()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.open(&cfg); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Fatalf("Open with an unusable %s: error %v, want naming the flag", flagName, err)
		}
	}
}

func TestThreshold(t *testing.T) {
	cases := []struct {
		t  float64
		ok bool
	}{
		{0, true},
		{0.3, true},
		{1, true},
		{-0.01, false},
		{1.01, false},
		{math.NaN(), false},
	}
	for _, tc := range cases {
		got, err := Threshold(tc.t)
		if tc.ok != (err == nil) {
			t.Errorf("Threshold(%v): err=%v, want ok=%v", tc.t, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.t {
			t.Errorf("Threshold(%v) = %v, want identity", tc.t, got)
		}
	}
}

// testEnv builds an Env on its own flag set with stderr captured and
// parses args into it.
func testEnv(t *testing.T, opt Flags, args ...string) (*Env, *bytes.Buffer) {
	t.Helper()
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("prog", flag.ContinueOnError)
	e := newEnv("prog", fs, true, opt)
	e.stderr = &stderr
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.shutdown() })
	return e, &stderr
}

// openEnv validates and opens an Env, failing the test on any error.
func openEnv(t *testing.T, opt Flags, args ...string) (*Env, experiments.Config, *bytes.Buffer) {
	t.Helper()
	e, stderr := testEnv(t, opt, args...)
	cfg, err := e.validate()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.open(&cfg); err != nil {
		t.Fatal(err)
	}
	return e, cfg, stderr
}

// TestEnvServer: no -server computes locally with no Remote installed
// (not even a typed nil), a good URL installs the client, and a
// malformed URL is a flag error at validation, before anything opens.
func TestEnvServer(t *testing.T) {
	if _, cfg, _ := openEnv(t, Flags{}); cfg.Remote != nil {
		t.Errorf("no -server: Remote = %v, want nil", cfg.Remote)
	}
	if _, cfg, _ := openEnv(t, Flags{}, "-server", "http://127.0.0.1:1"); cfg.Remote == nil {
		t.Error("-server with a valid URL installed no Remote")
	}
	e, _ := testEnv(t, Flags{}, "-server", ":bad:")
	if _, err := e.validate(); err == nil || !strings.Contains(err.Error(), "URL") {
		t.Errorf("-server=:bad: error %v, want a URL error", err)
	}
}

// TestEnvStoreOpenFailureDegrades: a -cache-dir that passes the
// writability probe but cannot hold a store (its entries directory is
// a regular file) warns once and runs storeless instead of failing.
func TestEnvStoreOpenFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "entries"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, cfg, stderr := openEnv(t, Flags{}, "-cache-dir", dir)
	if cfg.Store != nil {
		t.Fatal("unopenable store was installed")
	}
	if !strings.Contains(stderr.String(), "prog: store: ") ||
		!strings.Contains(stderr.String(), "continuing without persistent cache") {
		t.Fatalf("stderr %q lacks the degradation warning", stderr)
	}
	stderr.Reset()
	if err := e.teardown(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr.String(), "prog: store: hits=") {
		t.Fatalf("storeless run reported store stats: %q", stderr)
	}
}

// TestEnvValidatesBeforeOpening: every bad shared flag fails
// validation, and validation creates nothing on disk.
func TestEnvValidatesBeforeOpening(t *testing.T) {
	all := Flags{Seed: true, Fidelity: true, Threshold: true, Profiling: true}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "galactic"}, "unknown scale"},
		{[]string{"-workers", "0"}, "-workers"},
		{[]string{"-fidelity", "approximate"}, "fidelity"},
		{[]string{"-sample-sets", "3", "-fidelity", "set-sampled"}, "power of two"},
		{[]string{"-sample-sets", "8"}, "requires -fidelity=set-sampled"},
		{[]string{"-threshold", "2"}, "-threshold"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every"},
		{[]string{"-checkpoint-every", "1000"}, "-checkpoint-dir"},
	} {
		dir := filepath.Join(t.TempDir(), "never")
		args := append([]string{"-cache-dir", dir, "-cpuprofile", filepath.Join(dir, "cpu.out")}, tc.args...)
		e, _ := testEnv(t, all, args...)
		if _, err := e.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want containing %q", tc.args, err, tc.want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: validation created %s", tc.args, dir)
		}
	}
}

// TestEnvTeardownOnce: the teardown prints each opened layer's stats
// line once, writes the profiles, and is a no-op the second time.
func TestEnvTeardownOnce(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	e, _, stderr := openEnv(t, Flags{Profiling: true},
		"-cache-dir", filepath.Join(dir, "cache"), "-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-server", "http://127.0.0.1:1", "-cpuprofile", cpu, "-memprofile", mem)
	for i := 0; i < 2; i++ {
		if err := e.shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	for _, line := range []string{"prog: service: ", "prog: checkpoints: store: ", "prog: ckpt: ", "prog: store: "} {
		if n := strings.Count(stderr.String(), line); n != 1 {
			t.Errorf("%q printed %d times, want once:\n%s", line, n, stderr)
		}
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (err=%v)", p, err)
		}
	}
}
