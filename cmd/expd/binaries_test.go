package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The end-to-end tests of this package drive all six binaries as real
// processes; they are built once per test process into binDir.
var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binary returns the path of the named command, building all six on
// first use.
func binary(t *testing.T, name string) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "repro-bin-"); binErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir, "repro/cmd/...").CombinedOutput()
		if err != nil {
			binErr = errors.New("go build repro/cmd/...: " + err.Error() + "\n" + string(out))
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, name)
}

// exitCode is a finished command's exit status (-1 if it never ran).
func exitCode(err error) int {
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	default:
		return -1
	}
}

// flagSets pins every binary's flag names, types and defaults ("N" is
// the one-per-CPU default of -workers and -max-concurrent).
var flagSets = map[string]string{
	"coopsim": `cache-dir string|checkpoint-dir string|checkpoint-every int|compare|cpuprofile string|
		fidelity string "exact"|group string "G2-8"|memprofile string|sample-sets int|scale string "test"|
		scheme string "CoopPart"|seed uint 1|server string|threshold float 0.05|workers int N`,
	"figures": `cache-dir string|checkpoint-dir string|checkpoint-every int|cpuprofile string|csv|
		fidelity string "exact"|fig int|memprofile string|sample-sets int|scale string "test"|seed uint 1|
		server string|sweep string|sweep-cores string|sweep-groups int|threshold float 0.05|workers int N`,
	"tables": `cache-dir string|checkpoint-dir string|checkpoint-every int|fidelity string "exact"|
		sample-sets int|scale string "test"|seed uint 1|server string|table int|workers int N`,
	"report": `cache-dir string|checkpoint-dir string|checkpoint-every int|cpuprofile string|
		fidelity string "exact"|memprofile string|out string "report"|sample-sets int|scale string "test"|
		seed uint 1|server string|workers int N`,
	"tiercheck": `cache-dir string|checkpoint-dir string|checkpoint-every int|fidelity string "all"|
		gap-floor float 0.02|gap-fraction float 0.5|groups int|json string|sample-sets int|
		scale string "test"|seed-base uint 1|seeds int 5|server string|threshold float 0.05|workers int N`,
	"expd": `addr string "127.0.0.1:9190"|addr-file string|cache-dir string|checkpoint-dir string|
		checkpoint-every int|drain-timeout duration 30s|max-concurrent int N|workers int N`,
}

var (
	simCount    = regexp.MustCompile(`\(\d+ simulations\)`)
	flagLine    = regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)
	defaultText = regexp.MustCompile(` \(default (.+)\)$`)
)

// helpFlags renders a binary's -h output as sorted
// "name type default" entries in flagSets' notation.
func helpFlags(t *testing.T, bin string) string {
	t.Helper()
	_, help, err := runClient(bin, "-h")
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", bin, err, help)
	}
	var flags []string
	for _, line := range strings.Split(string(help), "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			flags = append(flags, strings.TrimSpace(m[1]+" "+m[2]))
			continue
		}
		m := defaultText.FindStringSubmatch(line)
		if m == nil || len(flags) == 0 {
			continue
		}
		// A string default is printed quoted; an unquoted
		// "(default ...)" ending a string flag's usage is prose.
		last := &flags[len(flags)-1]
		if strings.HasSuffix(*last, " string") != strings.HasPrefix(m[1], `"`) {
			continue
		}
		if strings.HasPrefix(*last, "workers ") || strings.HasPrefix(*last, "max-concurrent ") {
			m[1] = "N"
		}
		*last += " " + m[1]
	}
	sort.Strings(flags)
	return strings.Join(flags, "|")
}

// TestBinariesEndToEnd is the table-driven acceptance test of the
// shared command-line environment over all six binaries: each keeps
// exactly its flag set, and each experiment binary's stdout (report:
// its CSVs) is byte-identical with no cache, a cold -cache-dir and a
// warm one, with the same exit status, and the warm run reports hits.
func TestBinariesEndToEnd(t *testing.T) {
	for name, want := range flagSets {
		t.Run("flags/"+name, func(t *testing.T) {
			entries := strings.Split(want, "|")
			for i := range entries {
				entries[i] = strings.TrimSpace(entries[i])
			}
			want := strings.Join(entries, "|")
			if got := helpFlags(t, binary(t, name)); got != want {
				t.Errorf("%s flags\n got: %s\nwant: %s", name, got, want)
			}
		})
	}

	for _, tc := range []struct {
		bin  string
		args []string
	}{
		{"figures", []string{"-fig", "5"}},
		{"tables", nil},
		{"coopsim", []string{"-compare"}},
		{"tiercheck", []string{"-seeds", "1", "-groups", "1"}},
		{"report", nil},
	} {
		t.Run("store-modes/"+tc.bin, func(t *testing.T) {
			if tc.bin == "report" && testing.Short() {
				t.Skip("the full report takes ~16 s per run")
			}
			bin := binary(t, tc.bin)
			cache := filepath.Join(t.TempDir(), "cache")
			var outs []string
			var codes []int
			var warmErr []byte
			for i, extra := range [][]string{nil, {"-cache-dir", cache}, {"-cache-dir", cache}} {
				args := append(append([]string{"-scale", "unit"}, tc.args...), extra...)
				out := t.TempDir()
				if tc.bin == "report" {
					args = append(args, "-out", out)
				}
				stdout, stderr, err := runClient(bin, args...)
				if code := exitCode(err); code != 0 && tc.bin != "tiercheck" {
					t.Fatalf("%s %v: %v\n%s", tc.bin, args, err, stderr)
				}
				codes = append(codes, exitCode(err))
				switch tc.bin {
				case "report":
					stdout = concatCSVs(t, out)
				case "tiercheck":
					// The header counts the run's own simulations,
					// which is exactly what a warm cache changes.
					stdout = simCount.ReplaceAll(stdout, []byte("(N simulations)"))
				}
				outs = append(outs, string(stdout))
				if i == 2 {
					warmErr = stderr
				}
			}
			if outs[0] == "" || outs[1] != outs[0] || outs[2] != outs[0] {
				t.Errorf("%s output differs across no-cache, cold and warm runs (or is empty)", tc.bin)
			}
			if codes[1] != codes[0] || codes[2] != codes[0] {
				t.Errorf("%s exit codes %v differ across store modes", tc.bin, codes)
			}
			if !regexp.MustCompile(tc.bin + `: store: hits=[1-9]`).Match(warmErr) {
				t.Errorf("%s warm run reports no store hits:\n%s", tc.bin, warmErr)
			}
		})
	}

	// An error exit runs the same teardown as a normal return: the CPU
	// profile is flushed and the stats lines are printed.
	t.Run("fatal-tears-down/figures", func(t *testing.T) {
		dir := t.TempDir()
		prof := filepath.Join(dir, "p.out")
		_, stderr, err := runClient(binary(t, "figures"), "-fig", "99", "-scale", "unit",
			"-cache-dir", filepath.Join(dir, "D"), "-cpuprofile", prof)
		if code := exitCode(err); code != 1 {
			t.Fatalf("figures -fig 99 exit %d, want 1\n%s", code, stderr)
		}
		data, err := os.ReadFile(prof)
		if err != nil || len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("CPU profile not flushed: %d bytes, err=%v", len(data), err)
		}
		if !strings.Contains(string(stderr), "figures: store: ") {
			t.Errorf("no store stats line on the error exit:\n%s", stderr)
		}
	})
}

// concatCSVs renders a report directory's CSV files, in name order,
// as one comparable text.
func concatCSVs(t *testing.T, dir string) []byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no CSVs in %s (err=%v)", dir, err)
	}
	var buf bytes.Buffer
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString("== " + filepath.Base(f) + "\n")
		buf.Write(data)
	}
	return buf.Bytes()
}

// TestFlagValidationFailsFast: every binary rejects nonsensical
// -workers/-scale/-fidelity/-server values with a non-zero exit and a
// message naming the problem, before any simulation starts and before
// it creates anything: neither the -cache-dir nor report's -out exists
// afterwards.
func TestFlagValidationFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the client binaries")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"workers-zero", []string{"-workers", "0"}, "-workers"},
		{"workers-negative", []string{"-workers", "-3"}, "-workers"},
		{"bad-scale", []string{"-scale", "galactic"}, "unknown scale"},
		{"bad-server", []string{"-server", ":not a url:"}, "URL"},
		{"ckpt-every-negative", []string{"-checkpoint-every", "-1"}, "-checkpoint-every"},
		{"ckpt-every-without-dir", []string{"-checkpoint-every", "1000"}, "-checkpoint-dir"},
	}
	for _, name := range []string{"figures", "tables", "report", "coopsim", "tiercheck"} {
		bin := binary(t, name)
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				cache, out := filepath.Join(dir, "cache"), filepath.Join(dir, "out")
				args := append(tc.args, "-cache-dir", cache)
				if name == "report" {
					args = append(args, "-out", out)
				}
				start := time.Now()
				_, errOut, err := runClient(bin, args...)
				if err == nil {
					t.Fatalf("%s %v exited zero", name, tc.args)
				}
				if !strings.Contains(string(errOut), tc.want) {
					t.Fatalf("%s %v stderr %q does not mention %q", name, tc.args, errOut, tc.want)
				}
				if took := time.Since(start); took > 10*time.Second {
					t.Fatalf("%s %v took %v; validation must fail fast", name, tc.args, took)
				}
				for _, p := range []string{cache, out} {
					if _, err := os.Stat(p); !os.IsNotExist(err) {
						t.Errorf("%s %v created %s before failing", name, tc.args, p)
					}
				}
			})
		}
	}
	// The binaries with a one-tier -fidelity flag reject garbage tiers.
	for _, name := range []string{"figures", "report", "coopsim"} {
		t.Run(name+"/bad-fidelity", func(t *testing.T) {
			_, errOut, err := runClient(binary(t, name), "-fidelity", "approximate")
			if err == nil {
				t.Fatalf("%s -fidelity=approximate exited zero", name)
			}
			if !strings.Contains(strings.ToLower(string(errOut)), "fidelity") {
				t.Fatalf("%s stderr %q does not mention fidelity", name, errOut)
			}
		})
	}
	// expd itself validates too.
	expd := binary(t, "expd")
	t.Run("expd/workers-zero", func(t *testing.T) {
		_, errOut, err := runClient(expd, "-workers", "0")
		if err == nil {
			t.Fatal("expd -workers=0 exited zero")
		}
		if !strings.Contains(string(errOut), "-workers") {
			t.Fatalf("expd stderr %q does not mention -workers", errOut)
		}
	})
	t.Run("expd/bad-addr", func(t *testing.T) {
		_, _, err := runClient(expd, "-addr", "999.999.999.999:0")
		if err == nil {
			t.Fatal("expd with bogus -addr exited zero")
		}
	})
	t.Run("expd/ckpt-every-negative", func(t *testing.T) {
		_, errOut, err := runClient(expd, "-checkpoint-every", "-1")
		if err == nil {
			t.Fatal("expd -checkpoint-every=-1 exited zero")
		}
		if !strings.Contains(string(errOut), "-checkpoint-every") {
			t.Fatalf("expd stderr %q does not mention -checkpoint-every", errOut)
		}
	})
	t.Run("expd/ckpt-every-without-dir", func(t *testing.T) {
		_, errOut, err := runClient(expd, "-checkpoint-every", "1000")
		if err == nil {
			t.Fatal("expd -checkpoint-every without -checkpoint-dir exited zero")
		}
		if !strings.Contains(string(errOut), "-checkpoint-dir") {
			t.Fatalf("expd stderr %q does not mention -checkpoint-dir", errOut)
		}
	})
}
