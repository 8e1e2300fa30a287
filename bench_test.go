package repro

// The benchmark harness: every table and figure of the paper's
// evaluation has a BenchmarkTableN / BenchmarkFigN entry that
// regenerates it end to end (workload generation, simulation of all
// schemes involved, normalisation), so
//
//	go test -bench=Fig5 -benchtime=1x
//
// reproduces Figure 5 from nothing. Benchmarks run at UnitScale so a
// full -bench=. pass stays tractable; set REPRO_BENCH_SCALE=test for
// the larger scale cmd/report publishes (or use cmd/figures, which
// shares simulations across figures and fans them out with -workers).
//
// Microbenchmarks of the simulator's hot paths (LLC access under each
// scheme, the look-ahead allocator, trace generation) follow the
// figure benches.

import (
	"io"
	"os"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/umon"
	"repro/internal/workload"
)

// benchScale picks the simulation scale for figure benches.
func benchScale() sim.Scale {
	if os.Getenv("REPRO_BENCH_SCALE") == "test" {
		return sim.TestScale()
	}
	return sim.UnitScale()
}

// newRunner builds a fresh (unmemoised) runner so every iteration pays
// the full regeneration cost.
func newRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Config{Scale: benchScale()})
}

// benchFigure regenerates one figure per iteration.
func benchFigure(b *testing.B, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := newRunner().Figure(n)
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Tables 1-4 ----

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := newRunner().Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := newRunner().Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newRunner().Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 19 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := newRunner().Table4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 5-16 ----

func BenchmarkFig5(b *testing.B)  { benchFigure(b, 5) }
func BenchmarkFig6(b *testing.B)  { benchFigure(b, 6) }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, 7) }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, 8) }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, 9) }
func BenchmarkFig10(b *testing.B) { benchFigure(b, 10) }
func BenchmarkFig11(b *testing.B) { benchFigure(b, 11) }
func BenchmarkFig12(b *testing.B) { benchFigure(b, 12) }
func BenchmarkFig13(b *testing.B) { benchFigure(b, 13) }
func BenchmarkFig14(b *testing.B) { benchFigure(b, 14) }
func BenchmarkFig15(b *testing.B) { benchFigure(b, 15) }
func BenchmarkFig16(b *testing.B) { benchFigure(b, 16) }

// ---- Ablations (DESIGN.md §7) ----

func BenchmarkAblationVictim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().AblationVictim(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTakeover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().AblationTakeover(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().AblationGating(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Hot-path microbenchmarks ----

// benchSchemeAccess measures the per-access cost of one LLC scheme.
func benchSchemeAccess(b *testing.B, mk func(partition.Config) partition.Scheme) {
	b.Helper()
	cfg := partition.Config{
		Cache:    cache.Config{Name: "l2", SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, Latency: 15},
		NumCores: 2,
		DRAM:     mem.New(mem.DefaultConfig()),
	}
	s := mk(cfg)
	gen := workload.MustGet("soplex").NewGenerator(workload.Params{
		LineBytes: 64, WayLines: 128, InstrScale: 0.001, Seed: 1,
	})
	var r trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&r)
		if r.Kind == trace.KindLoad || r.Kind == trace.KindStore {
			s.Access(i&1, r.Addr, r.Kind == trace.KindStore, int64(i))
		}
	}
}

func BenchmarkAccessUnmanaged(b *testing.B) {
	benchSchemeAccess(b, func(c partition.Config) partition.Scheme { return partition.NewUnmanaged(c) })
}

func BenchmarkAccessFairShare(b *testing.B) {
	benchSchemeAccess(b, func(c partition.Config) partition.Scheme { return partition.NewFairShare(c) })
}

func BenchmarkAccessUCP(b *testing.B) {
	benchSchemeAccess(b, func(c partition.Config) partition.Scheme { return partition.NewUCP(c) })
}

func BenchmarkAccessCoopPart(b *testing.B) {
	benchSchemeAccess(b, func(c partition.Config) partition.Scheme { return core.New(c) })
}

func BenchmarkTraceGenerator(b *testing.B) {
	gen := workload.MustGet("gcc").NewGenerator(workload.Params{
		LineBytes: 64, WayLines: 128, InstrScale: 0.001, Seed: 1,
	})
	var r trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&r)
	}
}

// BenchmarkEventStream is BenchmarkTraceGenerator through the
// run-length-encoded event API (DESIGN.md §10): same gcc stream, one
// NextEvent per ALU-run-plus-record instead of one Next per record.
// ns/op is per instruction, so the two benches compare directly.
func BenchmarkEventStream(b *testing.B) {
	gen := workload.MustGet("gcc").NewGenerator(workload.Params{
		LineBytes: 64, WayLines: 128, InstrScale: 0.001, Seed: 1,
	})
	var ev trace.Event
	b.ResetTimer()
	for done := 0; done < b.N; {
		gen.NextEvent(&ev)
		done += ev.ALURun
		if ev.HasRec {
			done++
		}
	}
}

func BenchmarkLookahead(b *testing.B) {
	curves := make([]umon.Curve, 4)
	for i := range curves {
		c := make(umon.Curve, 17)
		v := uint64(100000)
		for w := range c {
			c[w] = v
			v = v * 7 / 8
		}
		curves[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		umon.ThresholdLookahead(curves, 16, 1, 0.05)
	}
}

func BenchmarkUMONAccess(b *testing.B) {
	m := umon.New(umon.Config{Sets: 128, Ways: 8, Sampling: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(i&127, uint64(i%4096))
	}
}

// BenchmarkFullRunCoopPart is one complete CoopPart run of G2-8 —
// warm-up, measured region and result assembly — at UnitScale (the
// TestScale hierarchy with a tenth of its instruction budget), not at
// FullScale: "Full" means the whole run end to end, not the paper's
// Table 2 scale.
func BenchmarkFullRunCoopPart(b *testing.B) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.RunConfig{
			Scale: sim.UnitScale(), Scheme: sim.CoopPart, Group: g, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRunCoopPartFastForward is BenchmarkFullRunCoopPart at
// the FastForward RNG-walk tier (DESIGN.md §11): the same end-to-end
// simulation with ALU-run draws skipped by the O(1) geometric sampler.
// The pair quantifies the wall-clock win bit-identity forbids.
func BenchmarkFullRunCoopPartFastForward(b *testing.B) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.RunConfig{
			Scale: sim.UnitScale(), Scheme: sim.CoopPart, Group: g, Seed: 1,
			Fidelity: sim.FidelityFastForward,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRunCoopPartSetSampled is BenchmarkFullRunCoopPart at
// the set-sampled LLC tier (DESIGN.md §15): the same end-to-end
// simulation with 1 in 8 LLC sets modelled and the rest served by the
// hit-rate estimator. Together with the FastForward pair above it
// quantifies the tier ladder's wall-clock trajectory; the headline
// speedup EXPERIMENTS.md records comes from this pair.
func BenchmarkFullRunCoopPartSetSampled(b *testing.B) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.RunConfig{
			Scale: sim.UnitScale(), Scheme: sim.CoopPart, Group: g, Seed: 1,
			Fidelity: sim.FidelitySetSampled,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventStreamFastForward is BenchmarkEventStream at the
// FastForward tier: per-instruction generator cost with ALU runs
// sampled in O(1) instead of drawn per instruction.
func BenchmarkEventStreamFastForward(b *testing.B) {
	bench := workload.MustGet("gcc")
	cfg := bench.TraceConfig(workload.Params{
		LineBytes: 64, WayLines: 128, InstrScale: 0.001, Seed: 1,
		Fidelity: trace.FidelityFastForward,
	})
	gen := trace.NewGenerator(cfg)
	var ev trace.Event
	b.ResetTimer()
	for done := 0; done < b.N; {
		gen.NextEvent(&ev)
		done += ev.ALURun
		if ev.HasRec {
			done++
		}
	}
}

func BenchmarkAblationRandomVictim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().AblationRandomVictim(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtDrowsy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().ExtDrowsy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadroom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newRunner().Headroom()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no headroom rows")
		}
	}
}

// BenchmarkScalingSweep regenerates the many-core scaling sweep
// (DESIGN.md §9) end to end: one group per core count at 2/4/8/16
// cores, every scheme, weighted speedup and energy.
func BenchmarkScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := newRunner().ScalingSweep(nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 2 {
			b.Fatal("scaling sweep returned no figures")
		}
	}
}
