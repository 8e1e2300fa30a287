// Command perfbench is the repository's benchmark. It drives the
// simulator and platform layers through their public entry points on
// one of three workloads and prints every metric by name with its unit,
// then one JSON object as its last line:
//
//	perfbench --workload fig5-exact|manycore16-sampled|lookup-warm
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it makes untraced passes for half the time, then
// traced passes (a CPU profile folded into the module's layers, plus
// timing wrappers around the expd client and handler) and reports the
// per-layer metrics. README.md lists what each metric should move.
//
// --update-refs regenerates refs.json, the reference outputs of the
// simulator workloads, for every input seed.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

//go:embed refs.json
var refsJSON []byte

// refSeeds is how many simulator seeds have reference outputs; --seed N
// selects simulator seed 1 + (N-1) mod refSeeds, so every input seed is
// checked against a stored reference. Seed refSeeds is held out: later
// performance claims are tuned on the others and must also hold there.
const refSeeds = 8

func simSeed(seed uint64) uint64 { return 1 + (seed+refSeeds-1)%refSeeds }

type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, perLayer those of a
// traced run; BENCHMARK.json lists the same names and units.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"peak_rss_mb", "MiB"},
	{"lookup_p50_us", "us"},
	{"lookup_p99_us", "us"},
	{"lookups_per_s", "1/s"},
}

var perLayer = []metric{
	{"error_rate", "ratio"},
	{"lookup.samples", "count"},
	{"tracing.overhead_s", "s"},
	{"pprof.unattributed_share", "ratio"},
	{"trace.self_s", "s"},
	{"trace.share", "ratio"},
	{"trace.ns_per_instr", "ns"},
	{"cpu.self_s", "s"},
	{"cpu.share", "ratio"},
	{"sim.picker_self_s", "s"},
	{"sim.system_self_s", "s"},
	{"cache.self_s", "s"},
	{"cache.share", "ratio"},
	{"partition.self_s", "s"},
	{"umon.self_s", "s"},
	{"mem.self_s", "s"},
	{"energy.self_s", "s"},
	{"runtime.gc_self_s", "s"},
	{"runtime.alloc_mb", "MiB"},
	{"ckpt.self_s", "s"},
	{"ckpt.warmups_computed", "count"},
	{"ckpt.warmups_resumed", "count"},
	{"experiments.self_s", "s"},
	{"experiments.simulations", "count"},
	{"experiments.answered.memo", "count"},
	{"experiments.answered.disk", "count"},
	{"experiments.answered.remote", "count"},
	{"experiments.answered.simulate", "count"},
	{"store.self_s", "s"},
	{"store.get_p50_us", "us"},
	{"store.publish_p50_us", "us"},
	{"store.publish_p99_us", "us"},
	{"store.hits", "count"},
	{"store.writes", "count"},
	{"store.faults", "count"},
	{"service.self_s", "s"},
	{"service.client_p50_us", "us"},
	{"service.client_p99_us", "us"},
	{"service.server_p50_us", "us"},
	{"service.retries", "count"},
	{"service.local_fallbacks", "count"},
	{"metrics.self_s", "s"},
	{"metrics.render_s", "s"},
	{"harness.self_s", "s"},
	{"llc.accesses", "count"},
	{"llc.misses", "count"},
	{"llc.ways_consulted", "count"},
	{"partition.decisions", "count"},
	{"partition.repartitions", "count"},
	{"core.ways_moved", "count"},
	{"mem.reads", "count"},
	{"mem.writes", "count"},
	{"mem.queue_stalls", "count"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fig5-exact, manycore16-sampled or lookup-warm")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	updateRefs := flag.String("update-refs", "",
		"write the reference outputs of -workload for every seed to this file and exit")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *updateRefs); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(name string, seed uint64, seconds float64, trace int, updateRefs string) error {
	refs, err := loadRefs(refsJSON)
	if err != nil {
		return err
	}
	sp, ok := workloads(production(), refs)[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if updateRefs != "" {
		return writeRefs(sp, updateRefs)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	res, err := measure(sp, simSeed(seed), seconds, trace == 1)
	if err != nil {
		return err
	}
	metrics := endToEnd
	if trace == 1 {
		metrics = perLayer
	}
	return report(os.Stdout, res, metrics)
}

// report prints each metric on its own line, then the result as one
// JSON object on the last line.
func report(w io.Writer, res *result, metrics []metric) error {
	for _, m := range metrics {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// measure sets the workload up and runs it for seconds, traced or not.
func measure(sp spec, seed uint64, seconds float64, traced bool) (*result, error) {
	var setupS []float64
	var e env
	for i := 0; i < sp.setups; i++ {
		t0 := time.Now()
		got, err := sp.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		e = got
	}

	budget := seconds
	if traced {
		budget /= 2
	}
	plain, err := passes(e, budget, false)
	if err != nil {
		return nil, err
	}
	var tracedIts []*iteration
	if traced {
		if tracedIts, err = passes(e, budget, true); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: map[string]value{}}
	all := append(append([]*iteration(nil), plain...), tracedIts...)
	for i, it := range all {
		res.Attempted += it.attempted
		res.Failed += it.failed
		if i > 0 && it.counts != all[0].counts {
			res.Attempted++
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: pass %d model counts %+v differ from pass 0 %+v\n",
				i, it.counts, all[0].counts)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	set := func(name string, v float64) {
		res.Metrics[name] = value{v, unitOf(name)}
	}
	if !traced {
		endToEndMetrics(set, setupS, plain)
	} else {
		perLayerMetrics(set, plain, tracedIts)
		set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)))
	}
	return res, nil
}

// passes runs iterations until the next one would overrun budget
// seconds; at least one runs.
func passes(e env, budget float64, traced bool) ([]*iteration, error) {
	// Every pass is one goroutine's work, or a client and server calling
	// each other synchronously. On the 2-vCPU host a second P made the
	// same pass 20% slower and three times noisier: the runtime moved
	// the goroutine and the collector across vCPUs that other machines
	// contend for.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out []*iteration
	start := time.Now()
	for {
		t0 := time.Now()
		it := newIteration()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		alloc0 := totalAllocMB()
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		err := e.iterate(it, traced)
		if traced {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, err
		}
		it.allocMB = totalAllocMB() - alloc0
		if it.rssMB, err = readPeakRSS(); err != nil {
			return nil, err
		}
		if traced {
			if it.layers, err = foldProfile(prof.Bytes()); err != nil {
				return nil, err
			}
		}
		out = append(out, it)
		last := time.Since(t0).Seconds()
		if time.Since(start).Seconds()+last > budget {
			return out, nil
		}
	}
}

func unitOf(name string) string {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

func pooled(its []*iteration, f func(*iteration) []float64) []float64 {
	var out []float64
	for _, it := range its {
		out = append(out, f(it)...)
	}
	return out
}

func endToEndMetrics(set func(string, float64), setupS []float64, its []*iteration) {
	lookups := pooled(its, func(it *iteration) []float64 { return it.lookupUS })
	set("setup_s", median(setupS))
	set("wall_s", medianOf(its, func(it *iteration) float64 { return it.wallS }))
	set("sim_mips", medianOf(its, func(it *iteration) float64 { return float64(it.instr) / it.wallS / 1e6 }))
	set("peak_rss_mb", medianOf(its, func(it *iteration) float64 { return it.rssMB }))
	set("lookup_p50_us", percentile(lookups, 0.50))
	set("lookup_p99_us", percentile(lookups, 0.99))
	set("lookups_per_s", medianOf(its, func(it *iteration) float64 { return float64(len(it.lookupUS)) / it.wallS }))
	fmt.Printf("%d passes, %d lookup samples, runtime.alloc_mb %.6g MiB per pass\n", len(its), len(lookups),
		medianOf(its, func(it *iteration) float64 { return it.allocMB }))
	walls := pooled(its, func(it *iteration) []float64 { return []float64{it.wallS} })
	fmt.Printf("wall_s per pass: min %.6g, median %.6g, max %.6g\n",
		percentile(walls, 0), median(walls), percentile(walls, 1))
}

// selfLayers maps each "<layer>.self_s" metric to its layer.
var selfLayers = map[string]string{
	"trace.self_s":       layerTrace,
	"cpu.self_s":         layerCPU,
	"sim.picker_self_s":  layerSimPicker,
	"sim.system_self_s":  layerSimSystem,
	"cache.self_s":       layerCache,
	"partition.self_s":   layerPartition,
	"umon.self_s":        layerUMON,
	"mem.self_s":         layerMem,
	"energy.self_s":      layerEnergy,
	"runtime.gc_self_s":  layerGC,
	"ckpt.self_s":        layerCkpt,
	"experiments.self_s": layerExperiments,
	"store.self_s":       layerStore,
	"service.self_s":     layerService,
	"metrics.self_s":     layerMetrics,
	"harness.self_s":     layerHarness,
}

func perLayerMetrics(set func(string, float64), plain, traced []*iteration) {
	n := float64(len(traced))
	sum := layerTimes{}
	for _, it := range traced {
		for l, ns := range it.layers {
			sum[l] += ns
		}
	}
	total := float64(sum.total())
	share := func(l string) float64 {
		if total == 0 {
			return 0
		}
		return float64(sum[l]) / total
	}
	for m, l := range selfLayers {
		set(m, float64(sum[l])/n/1e9)
	}
	set("trace.share", share(layerTrace))
	set("cpu.share", share(layerCPU))
	set("cache.share", share(layerCache))
	set("pprof.unattributed_share", share(layerUnknown))
	instr := medianOf(traced, func(it *iteration) float64 { return float64(it.instr) })
	nsPerInstr := 0.0
	if instr > 0 {
		nsPerInstr = float64(sum[layerTrace]) / n / instr
	}
	set("trace.ns_per_instr", nsPerInstr)

	wall := func(it *iteration) float64 { return it.wallS }
	set("tracing.overhead_s", medianOf(traced, wall)-medianOf(plain, wall))
	set("runtime.alloc_mb", medianOf(plain, func(it *iteration) float64 { return it.allocMB }))
	set("lookup.samples", float64(len(pooled(traced, func(it *iteration) []float64 { return it.lookupUS }))))

	count := func(name string, f func(*iteration) uint64) {
		set(name, medianOf(traced, func(it *iteration) float64 { return float64(f(it)) }))
	}
	count("ckpt.warmups_computed", func(it *iteration) uint64 { return it.warmComputed })
	count("ckpt.warmups_resumed", func(it *iteration) uint64 { return it.warmResumed })
	count("experiments.simulations", func(it *iteration) uint64 { return it.simulations })
	for _, layer := range []string{"memo", "disk", "remote", "simulate"} {
		count("experiments.answered."+layer, func(it *iteration) uint64 { return uint64(it.answered[layer]) })
	}
	count("store.hits", func(it *iteration) uint64 { return it.storeHits })
	count("store.writes", func(it *iteration) uint64 { return it.storeWrites })
	count("store.faults", func(it *iteration) uint64 { return it.storeFaults })
	count("service.retries", func(it *iteration) uint64 { return it.retries })
	count("service.local_fallbacks", func(it *iteration) uint64 { return it.fallbacks })

	get := pooled(traced, func(it *iteration) []float64 { return it.storeGetUS })
	publish := pooled(traced, func(it *iteration) []float64 { return it.storePublishUS })
	client := pooled(traced, func(it *iteration) []float64 { return it.clientUS })
	server := pooled(traced, func(it *iteration) []float64 { return it.serverUS })
	set("store.get_p50_us", percentile(get, 0.50))
	set("store.publish_p50_us", percentile(publish, 0.50))
	set("store.publish_p99_us", percentile(publish, 0.99))
	set("service.client_p50_us", percentile(client, 0.50))
	set("service.client_p99_us", percentile(client, 0.99))
	set("service.server_p50_us", percentile(server, 0.50))
	set("metrics.render_s", medianOf(traced, func(it *iteration) float64 { return it.renderS }))

	c := traced[0].counts
	for name, v := range map[string]uint64{
		"llc.accesses": c.LLCAccesses, "llc.misses": c.LLCMisses, "llc.ways_consulted": c.LLCWaysConsulted,
		"partition.decisions": c.Decisions, "partition.repartitions": c.Repartitions,
		"core.ways_moved": c.WaysMoved, "mem.reads": c.MemReads, "mem.writes": c.MemWrites,
		"mem.queue_stalls": c.MemQueueStalls,
	} {
		set(name, float64(v))
	}
	fmt.Printf("%d untraced and %d traced passes; samples: store.get %d, store.publish %d, service.client %d, service.server %d\n",
		len(plain), len(traced), len(get), len(publish), len(client), len(server))
}

// loadRefs decodes refs.json: workload -> simulator seed -> reference.
func loadRefs(b []byte) (map[string]map[uint64]reference, error) {
	refs := map[string]map[uint64]reference{}
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// writeRefs runs one pass of a simulator workload at every simulator
// seed and merges the outputs into the references stored at path.
func writeRefs(sp spec, path string) error {
	old, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	refs, err := loadRefs(old)
	if err != nil {
		return err
	}
	got := map[uint64]reference{}
	for seed := uint64(1); seed <= refSeeds; seed++ {
		e, err := sp.setup(seed)
		if err != nil {
			return err
		}
		it := newIteration()
		if err := e.iterate(it, false); err != nil {
			return err
		}
		if it.digest == "" {
			return fmt.Errorf("%s has no stored reference outputs", sp.name)
		}
		got[seed] = reference{Digest: it.digest, Counts: it.counts}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", sp.name, seed, it.digest)
	}
	refs[sp.name] = got
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
