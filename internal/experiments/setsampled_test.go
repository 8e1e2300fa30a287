package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSetSampledMemoisedDistinctly extends the tier-sentinel regression
// test to the third fidelity tier: exact, fast-forward and set-sampled
// runs of one (group, scheme, threshold) must land under three distinct
// memo keys and carry their own labels, and the persistent-store key
// space must separate them the same way (including the sample stride,
// which travels in the scale fingerprint).
func TestSetSampledMemoisedDistinctly(t *testing.T) {
	r := NewRunner(Config{Scale: sim.UnitScale()})
	g := workload.Groups2[0]

	at := func(fid sim.Fidelity) Request {
		return Request{Group: g, Scheme: sim.CoopPart, Threshold: r.cfg.Threshold, Fidelity: fid}
	}
	exact, err := r.lookup(at(sim.FidelityExact))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := r.lookup(at(sim.FidelityFastForward))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := r.lookup(at(sim.FidelitySetSampled))
	if err != nil {
		t.Fatal(err)
	}
	if exact == ss || ff == ss {
		t.Fatal("set-sampled run memoised under another tier's key")
	}
	if ss.Fidelity != sim.FidelitySetSampled {
		t.Fatalf("set-sampled result mislabelled: %v", ss.Fidelity)
	}
	if got := r.Simulations(); got != 3 {
		t.Fatalf("executed %d simulations, want 3 (one per tier)", got)
	}
	// Repeats hit the memo.
	if again, err := r.lookup(at(sim.FidelitySetSampled)); err != nil || again != ss {
		t.Fatalf("repeated set-sampled request missed the memo (err=%v)", err)
	}

	// Store keys: the tier is spelled out, and two strides are two
	// distinct scale fingerprints (so a K=8 result is never served to a
	// K=16 request).
	kSS := r.Key(at(sim.FidelitySetSampled))
	kFF := r.Key(at(sim.FidelityFastForward))
	if kSS == kFF || !strings.Contains(kSS, "fidelity=set-sampled") {
		t.Fatalf("store key does not separate the set-sampled tier: %q", kSS)
	}
	sc := sim.UnitScale()
	sc.SampleStride = 16
	r16 := NewRunner(Config{Scale: sc})
	if k16 := r16.Key(at(sim.FidelitySetSampled)); k16 == kSS {
		t.Fatal("stride 16 and the default stride share a store key")
	}
}

// chiSquared999 is the 99.9th-percentile critical value of the
// chi-squared distribution, by degrees of freedom, for the bin counts
// this package's distribution tests use.
var chiSquared999 = map[int]float64{
	11: 31.264,
	27: 55.476,
}

// TestSetSampledMissDistribution is the distribution-shape check the
// per-figure deltas cannot see: across (group, core) bins, the
// set-sampled tier's share of total LLC misses must match the exact
// tier's. Both tiers' per-bin miss counts are normalised to
// proportions and compared with a chi-squared statistic at pseudo-
// sample size N=500 — testing shape, not magnitude, so an overall
// estimation bias (partition/estimate.go) could not mask a skewed
// redistribution of misses between workloads. The statistic
// must stay under the chi-squared 99.9% critical value for the bin
// count's degrees of freedom.
func TestSetSampledMissDistribution(t *testing.T) {
	const pseudoN = 500.0
	r := NewRunner(Config{Scale: sim.UnitScale()})
	groups := workload.Groups2[:6]

	var reqs []Request
	for _, fid := range []sim.Fidelity{sim.FidelityExact, sim.FidelitySetSampled} {
		for _, g := range groups {
			reqs = append(reqs, Request{Group: g, Scheme: sim.CoopPart,
				Threshold: r.cfg.Threshold, Fidelity: fid})
		}
	}
	runs, err := r.RunAll(reqs, false)
	if err != nil {
		t.Fatal(err)
	}

	// misses reads one tier's half of runs: exact first, then set-sampled.
	misses := func(tier []*sim.Results) []float64 {
		var out []float64
		for _, res := range tier {
			for _, c := range res.SchemeStats.PerCore {
				out = append(out, float64(c.Misses))
			}
		}
		return out
	}
	exact := misses(runs[:len(groups)])
	sampled := misses(runs[len(groups):])
	if len(exact) != len(sampled) || len(exact) == 0 {
		t.Fatalf("bin mismatch: %d exact vs %d sampled", len(exact), len(sampled))
	}

	var exTot, ssTot float64
	for i := range exact {
		exTot += exact[i]
		ssTot += sampled[i]
	}
	chi2 := 0.0
	for i := range exact {
		p := exact[i] / exTot   // expected proportion (exact tier)
		q := sampled[i] / ssTot // observed proportion (set-sampled tier)
		if p == 0 {
			t.Fatalf("bin %d has zero exact misses; the binning is degenerate", i)
		}
		chi2 += pseudoN * (q - p) * (q - p) / p
	}
	df := len(exact) - 1
	crit, ok := chiSquared999[df]
	if !ok {
		t.Fatalf("no critical value tabulated for %d degrees of freedom", df)
	}
	t.Logf("chi-squared = %.2f over %d bins (critical value %.2f at 99.9%%)", chi2, len(exact), crit)
	if chi2 > crit {
		t.Fatalf("miss distribution diverges: chi-squared %.2f > %.2f (df=%d, pseudo-N=%.0f)",
			chi2, crit, df, pseudoN)
	}
}
