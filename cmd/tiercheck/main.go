// Command tiercheck runs the statistical tier-equivalence harness
// (experiments.ValidateTiers): the bit-identical Exact tier and the
// statistical tiers under test (FastForward and SetSampled by default)
// execute the headline figures across a seed sweep, and the run fails
// (exit 1) unless every figure's exact-vs-tier delta is small relative
// to the smallest gap between schemes — the contract that keeps the
// non-bit-identical tiers honest (DESIGN.md §11, §15). CI runs it as a
// gate and uploads the JSON report as an artifact; EXPERIMENTS.md
// records a TestScale run.
//
// Usage:
//
//	tiercheck [-seeds 5] [-seed-base 1] [-fidelity all|fastforward|set-sampled]
//	          [-groups N] [-gap-fraction 0.5] [-gap-floor 0.02]
//	          [-json report.json] [shared flags]
//
// The shared flags are documented in internal/cliutil; tiercheck takes
// -threshold but not the profiles, and its own -seeds/-seed-base and
// -fidelity (the tiers under test) replace -seed and the one-tier
// -fidelity.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	env := cliutil.New("tiercheck", cliutil.Flags{Threshold: true})
	seeds := flag.Int("seeds", 5, "number of seeds in the sweep")
	seedBase := flag.Uint64("seed-base", 1, "first seed of the sweep")
	fidelity := flag.String("fidelity", "all",
		"statistical tier(s) to validate against exact: all, fastforward or set-sampled")
	groups := flag.Int("groups", 0, "two-core groups per figure (0 = all)")
	gapFraction := flag.Float64("gap-fraction", experiments.DefaultGapFraction,
		"pass when max tier delta <= gap-fraction * min between-scheme gap")
	gapFloor := flag.Float64("gap-floor", experiments.DefaultGapFloor,
		"scheme pairs closer than this are near-ties excluded from the gap")
	jsonOut := flag.String("json", "", "also write the machine-readable report to this file")
	cfg := env.Parse()

	if *seeds <= 0 {
		env.Fatal(fmt.Errorf("-seeds must be positive, got %d", *seeds))
	}
	sweep := make([]uint64, *seeds)
	for i := range sweep {
		sweep[i] = *seedBase + uint64(i)
	}
	// -sample-sets is meaningful whenever the sweep includes the
	// set-sampled tier (always, except -fidelity=fastforward).
	var tiers []sim.Fidelity // nil: ValidateTiers' default, every statistical tier
	strideFid := sim.FidelitySetSampled
	switch *fidelity {
	case "all":
	case "fastforward":
		tiers = []sim.Fidelity{sim.FidelityFastForward}
		strideFid = sim.FidelityFastForward
	case "set-sampled":
		tiers = []sim.Fidelity{sim.FidelitySetSampled}
	default:
		env.Fatal(fmt.Errorf("unknown -fidelity=%q (all, fastforward or set-sampled)", *fidelity))
	}
	var err error
	if cfg.Scale.SampleStride, err = cliutil.SampleSets(cfg.Scale.SampleStride, strideFid); err != nil {
		env.Fatal(err)
	}
	env.Open(&cfg)
	defer env.Close()

	report, err := experiments.ValidateTiers(experiments.TierCheckConfig{
		Scale:       cfg.Scale,
		Tiers:       tiers,
		Seeds:       sweep,
		Threshold:   cfg.Threshold,
		Workers:     cfg.Workers,
		MaxGroups:   *groups,
		GapFraction: *gapFraction,
		GapFloor:    *gapFloor,
		Store:       cfg.Store,
		Remote:      cfg.Remote,
		Checkpoints: cfg.Checkpoints,
	})
	if err == nil {
		err = report.WriteTable(os.Stdout)
	}
	if err == nil && *jsonOut != "" {
		err = writeJSON(report, *jsonOut)
	}
	if err != nil {
		env.Fatal(err)
	}
	if !report.Pass {
		env.Exit(1)
	}
}

func writeJSON(report *experiments.TierReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
