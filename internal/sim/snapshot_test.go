package sim

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// snapshotCfg builds the round-trip oracle config: CoopPart on a
// two-core group at unit scale, at either fidelity tier.
func snapshotCfg(t testing.TB, fid Fidelity, seed uint64) RunConfig {
	t.Helper()
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Scale: UnitScale(), Scheme: CoopPart, Group: g,
		Threshold: 0.05, Seed: seed, Fidelity: fid,
	}
}

// roundTripEveryBoundary runs cfg once with a snapshot captured (and
// serialized) at each every-instruction boundary, then restores every
// snapshot into a freshly built system and runs it to completion. The
// property under test: serialize → restore at any boundary continues
// bit-identically — every continuation's Results must deeply equal the
// uninterrupted run's. It returns how many boundaries were exercised.
func roundTripEveryBoundary(t testing.TB, cfg RunConfig, every uint64) int {
	t.Helper()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()

	// The warm-up boundary is a checkpoint too (the one warm-up sharing
	// restores from), so it round-trips first.
	type captured struct {
		boundary uint64
		data     []byte
	}
	warmSnap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warmData, err := MarshalSnapshot(warmSnap)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []captured{{0, warmData}}

	res := sys.RunMeasured(every, func(boundary uint64) {
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at boundary %d: %v", boundary, err)
		}
		data, err := MarshalSnapshot(snap)
		if err != nil {
			t.Fatalf("marshal at boundary %d: %v", boundary, err)
		}
		snaps = append(snaps, captured{boundary, data})
	})
	if !reflect.DeepEqual(res, want) {
		t.Fatal("instrumented run differs from plain Run — snapshotting perturbed the simulation")
	}

	for _, c := range snaps {
		snap, err := UnmarshalSnapshot(c.data)
		if err != nil {
			t.Fatalf("unmarshal at boundary %d: %v", c.boundary, err)
		}
		fresh, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore at boundary %d: %v", c.boundary, err)
		}
		got := fresh.RunMeasured(0, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("continuation from boundary %d diverges from the uninterrupted run", c.boundary)
		}
	}
	return len(snaps)
}

// TestSnapshotRoundTripAtEveryRecordBoundary exercises both fidelity
// tiers at an aligned cadence and an off-grid prime one. The prime
// cadence is the hard case: boundaries land mid-phase at arbitrary
// points of the generators' RNG walks, FastForward's jump state and
// the fractional-MLP clocks, none of which may lose precision through
// the wire round-trip.
func TestSnapshotRoundTripAtEveryRecordBoundary(t *testing.T) {
	for _, fid := range []Fidelity{FidelityExact, FidelityFastForward} {
		for _, every := range []uint64{30_000, 7_919} {
			cfg := snapshotCfg(t, fid, 1)
			n := roundTripEveryBoundary(t, cfg, every)
			if n < 2 {
				t.Fatalf("%s/every=%d: only %d boundaries exercised", fid, every, n)
			}
			t.Logf("%s/every=%d: %d boundaries round-tripped", fid, every, n)
		}
	}
}

// TestSnapshotRoundTripCaptureProfile covers the profiling state the
// warm-up path strips: a CaptureProfile run's mid-run snapshots carry
// the profile monitor and phase log, and continuations must reproduce
// Results.Profile exactly.
func TestSnapshotRoundTripCaptureProfile(t *testing.T) {
	g, err := workload.FindGroup("G2-8")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ProfileConfig(g.Benchmarks[0], UnitScale(), len(g.Benchmarks), 1, FidelityExact)
	if err != nil {
		t.Fatal(err)
	}
	roundTripEveryBoundary(t, cfg, 30_000)
}

// TestSnapshotRejectsMismatchedSystem: a snapshot must only restore
// into a system of the identical configuration; scheme and geometry
// mismatches fail loudly instead of continuing from inconsistent
// state.
func TestSnapshotRejectsMismatchedSystem(t *testing.T) {
	cfg := snapshotCfg(t, FidelityExact, 1)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Scheme = UCP
	wrongScheme, err := NewSystem(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongScheme.RestoreSnapshot(snap); err == nil {
		t.Fatal("snapshot restored into a different scheme")
	}

	four := cfg
	four.Cores = 4
	wrongCores, err := NewSystem(four)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongCores.RestoreSnapshot(snap); err == nil {
		t.Fatal("two-core snapshot restored into a four-core system")
	}
}

// FuzzSnapshotRoundTrip drives the round-trip property over fuzzed
// (cadence, seed, tier) triples. The seed corpus covers both tiers and
// off-grid cadences; `go test` runs the corpus as a smoke, `go test
// -fuzz=FuzzSnapshotRoundTrip` explores further.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(7_919), uint64(1), false)
	f.Add(uint64(7_919), uint64(2), true)
	f.Add(uint64(41_333), uint64(3), true)
	f.Fuzz(func(t *testing.T, every, seed uint64, fastForward bool) {
		scale := UnitScale()
		// Clamp the cadence into (0, InstrPerApp) without collapsing the
		// fuzzed variety; tiny cadences would mean thousands of
		// continuations per exec.
		every = every%scale.InstrPerApp + 1
		if every < 5_000 {
			every += 5_000
		}
		fid := FidelityExact
		if fastForward {
			fid = FidelityFastForward
		}
		roundTripEveryBoundary(t, snapshotCfg(t, fid, seed), every)
	})
}
