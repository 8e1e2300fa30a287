package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestWarmupSharingExactlyOnce is the acceptance assertion for warm-up
// sharing: across a TestScale sweep (every scheme on one group, plus
// the solo and profiling runs weighted speedup and DynCPE pull in),
// each warm-up identity is computed exactly once. The per-scheme group
// runs cannot share (the scheme steers the warm-up trajectory), but a
// benchmark's alone and profile runs — identical but for profile
// capture — must warm once between them.
func TestWarmupSharingExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TestScale sweep")
	}
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	mgr := ckpt.New(ckpt.Options{Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }})
	r := NewRunner(Config{Scale: sim.TestScale(), Seed: 1, Checkpoints: mgr})
	if _, err := r.RunCross([]workload.Group{g}, sim.AllSchemes, true); err != nil {
		t.Fatal(err)
	}

	schemes := uint64(len(sim.AllSchemes))
	benchmarks := uint64(len(g.Benchmarks))
	// 5 scheme runs + 2 alone + 2 profile simulations...
	if sims := r.Simulations(); sims != schemes+2*benchmarks {
		t.Fatalf("sweep ran %d simulations, want %d", sims, schemes+2*benchmarks)
	}
	// ...but only 5 + 2 warm-ups: each (benchmark, seed) pair warmed
	// exactly once, the profile runs resuming the alone warm-up.
	stats := mgr.Stats()
	if stats.WarmupsComputed != schemes+benchmarks {
		t.Fatalf("sweep computed %d warm-ups, want %d (%v)", stats.WarmupsComputed, schemes+benchmarks, stats)
	}
	if stats.WarmupsResumed != benchmarks {
		t.Fatalf("sweep resumed %d warm-ups, want %d (%v)", stats.WarmupsResumed, benchmarks, stats)
	}
}

// TestWarmupSharingAcrossProcesses: a second runner over the same
// checkpoint directory (a rerun after a crash, or another process of a
// distributed sweep) re-warms nothing and reproduces the first
// runner's results exactly.
func TestWarmupSharingAcrossProcesses(t *testing.T) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := store.Options{
		Logf:        func(format string, args ...any) { t.Logf("store: "+format, args...) },
		LockTimeout: 50 * time.Millisecond,
		StaleAge:    10 * time.Millisecond,
	}
	logf := func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }

	run := func() (*Runner, ckpt.Stats, *sim.Results) {
		st, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		mgr := ckpt.New(ckpt.Options{Store: st, Every: 30_000, Logf: logf})
		r := NewRunner(Config{Scale: sim.UnitScale(), Seed: 1, Checkpoints: mgr})
		if _, err := r.RunCross([]workload.Group{g}, sim.AllSchemes, true); err != nil {
			t.Fatal(err)
		}
		res, err := r.RunGroup(g, sim.CoopPart)
		if err != nil {
			t.Fatal(err)
		}
		return r, mgr.Stats(), res
	}

	r1, stats1, res1 := run()
	if stats1.WarmupsComputed == 0 || stats1.CheckpointsWritten == 0 {
		t.Fatalf("first process wrote no checkpoints: %v", stats1)
	}
	r2, stats2, res2 := run()
	if stats2.WarmupsComputed != 0 {
		t.Fatalf("second process re-warmed %d times, want 0 (%v)", stats2.WarmupsComputed, stats2)
	}
	if stats2.WarmupsResumed+stats2.MidRunResumed == 0 {
		t.Fatalf("second process resumed nothing: %v", stats2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("second process's results differ from the first's")
	}
	ws1, err := r1.WeightedSpeedup(res1)
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := r2.WeightedSpeedup(res2)
	if err != nil {
		t.Fatal(err)
	}
	if ws1 != ws2 {
		t.Fatalf("weighted speedup drifted across processes: %v vs %v", ws1, ws2)
	}
}

// TestFigureBytesIdenticalWithCheckpointing: the figure pipeline's
// rendered output — the bytes a byte-comparison of cmd/figures would
// see — is identical between a default runner (memory-only warm-up
// sharing) and one running disk-backed mid-run checkpointing.
func TestFigureBytesIdenticalWithCheckpointing(t *testing.T) {
	render := func(mgr *ckpt.Manager) []byte {
		r := NewRunner(Config{Scale: sim.UnitScale(), Seed: 1, Checkpoints: mgr})
		fig, err := r.Figure(5)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fig.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		if err := fig.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	baseline := render(nil) // NewRunner substitutes the memory-only manager

	st, err := store.Open(t.TempDir(), store.Options{
		Logf: func(format string, args ...any) { t.Logf("store: "+format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := ckpt.New(ckpt.Options{Store: st, Every: 30_000,
		Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }})
	if got := render(mgr); !bytes.Equal(got, baseline) {
		t.Fatal("figure bytes differ under disk-backed checkpointing")
	}
	// And a rerun over the populated directory — the crash-resume path.
	mgr2 := ckpt.New(ckpt.Options{Store: st, Every: 30_000,
		Logf: func(format string, args ...any) { t.Logf("ckpt: "+format, args...) }})
	if got := render(mgr2); !bytes.Equal(got, baseline) {
		t.Fatal("figure bytes differ on checkpoint resume")
	}
	if stats := mgr2.Stats(); stats.MidRunResumed+stats.WarmupsResumed == 0 {
		t.Fatalf("rerun reused no checkpoints: %v", stats)
	}
}
