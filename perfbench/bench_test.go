package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// toy shrinks every workload to well under a second of simulation.
func toy() sizes {
	many := sim.UnitScale()
	many.SampleStride = 8
	return sizes{
		fig5Scale:     sim.UnitScale(),
		fig5Groups:    []string{"G2-8"},
		manyScale:     many,
		manyCores:     4,
		lookupScale:   sim.UnitScale(),
		lookupFigures: []int{14},
		lookupSetups:  1,
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile pins the metric lists to BENCHMARK.json,
// name for name and unit for unit.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(want), len(got))
		}
		for i := range min(len(want), len(got)) {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	specs := workloads(production(), nil)
	for _, w := range bf.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(specs))
	}
}

// TestLayerMapCoversInternalPackages fails when a package under
// internal/ maps to no layer.
func TestLayerMapCoversInternalPackages(t *testing.T) {
	seen := 0
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(rel)
		seen++
		if layerOfFunc(pkg+".F") == "" {
			t.Errorf("package %s maps to no layer", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("found no packages under ../internal")
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/sim.(*clockHeap).siftDown", "repro/internal/sim.(*System).step"}, layerSimPicker},
		{[]string{"repro/internal/sim.(*System).step"}, layerSimSystem},
		{[]string{"math.Log", "repro/internal/trace.(*Gen).next", "repro/internal/sim.(*System).step"}, layerTrace},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/cache.New"}, layerGC},
		{[]string{"repro/internal/experiments.(*flight[go.shape.struct { a/b.c }]).Do"}, layerExperiments},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).readLoop"}, layerService},
		{[]string{"runtime.futex", "runtime.schedule"}, layerUnknown},
	} {
		if got := layerOfStack(tc.frames); got != tc.want {
			t.Errorf("layerOfStack(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

var sink uint64

// spin keeps a CPU busy in this package for d.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// TestFoldProfile decodes a real CPU profile and attributes its time.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	lt, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if lt.total() == 0 {
		t.Skip("no CPU samples recorded")
	}
	if share := float64(lt[layerHarness]) / float64(lt.total()); share < 0.5 {
		t.Errorf("harness share %.2f of %v, want most of it", share, lt)
	}
}

func TestSimSeed(t *testing.T) {
	for in, want := range map[uint64]uint64{0: refSeeds, 1: 1, refSeeds: refSeeds, refSeeds + 1: 1, 1<<63 + 3: 3} {
		if got := simSeed(in); got != want {
			t.Errorf("simSeed(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestToyRuns runs every workload at toy sizes, traced and not: every
// metric must print with its unit and the run must be correct; then a
// wrong reference digest must show up as failures in error_rate.
func TestToyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const seed = 3
	refs := map[string]map[uint64]reference{}
	for name, sp := range workloads(toy(), nil) {
		e, err := sp.setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		it := newIteration()
		if err := e.iterate(it, false); err != nil {
			t.Fatal(err)
		}
		if it.digest != "" {
			refs[name] = map[uint64]reference{seed: {Digest: it.digest, Counts: it.counts}}
		}
	}
	if len(refs) != 2 {
		t.Fatalf("references for %d simulator workloads, want 2", len(refs))
	}

	for name, sp := range workloads(toy(), refs) {
		for _, traced := range []bool{false, true} {
			res, err := measure(sp, seed, 0.01, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
				checkLayerExpectations(t, name, res)
			}
			checkReport(t, name, res, want)
		}
	}

	for name := range refs {
		bad := refs[name][seed]
		bad.Digest = strings.Repeat("0", len(bad.Digest))
		wrong := map[string]map[uint64]reference{name: {seed: bad}}
		res, err := measure(workloads(toy(), wrong)[name], seed, 0.01, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Correct || res.Metrics["error_rate"].Value <= 0 {
			t.Errorf("%s: a wrong reference digest gave failed=%d error_rate=%v", name,
				res.Failed, res.Metrics["error_rate"].Value)
		}
	}
}

// checkReport checks that every metric prints by name with its unit and
// that the last line is the JSON result with exactly those metrics.
func checkReport(t *testing.T, name string, res *result, want []metric) {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, res, want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", name, err)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("%s: %d metrics in the JSON result, want %d", name, len(got.Metrics), len(want))
	}
	for i, m := range want {
		v, ok := got.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, m.name, v, m.unit)
		}
		if f := strings.Fields(lines[i]); len(f) != 3 || f[0] != m.name || f[2] != m.unit {
			t.Errorf("%s: line %q, want %s <value> %s", name, lines[i], m.name, m.unit)
		}
	}
	if got.Attempted < 1 {
		t.Errorf("%s: attempted %d", name, got.Attempted)
	}
}

// checkLayerExpectations pins which layers answer on which workload.
func checkLayerExpectations(t *testing.T, name string, res *result) {
	t.Helper()
	v := func(m string) float64 { return res.Metrics[m].Value }
	if name == "lookup-warm" {
		if v("experiments.answered.simulate") != 0 || v("experiments.simulations") != 0 {
			t.Errorf("%s: simulated locally", name)
		}
		for _, m := range []string{"experiments.answered.remote", "experiments.answered.disk",
			"store.hits", "store.writes", "service.client_p50_us", "service.server_p50_us"} {
			if v(m) <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, v(m))
			}
		}
		return
	}
	if v("experiments.answered.simulate") <= 0 || v("llc.accesses") <= 0 {
		t.Errorf("%s: no simulations measured", name)
	}
	for _, m := range []string{"experiments.answered.disk", "experiments.answered.remote",
		"store.hits", "service.client_p50_us", "service.client_p99_us"} {
		if v(m) != 0 {
			t.Errorf("%s: %s = %v, want 0", name, m, v(m))
		}
	}
}
