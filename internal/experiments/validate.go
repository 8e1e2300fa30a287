package experiments

// The tier-equivalence validation harness (DESIGN.md §11, §15). The
// statistical fidelity tiers — FastForward's RNG walk and SetSampled's
// 1/K LLC on top of it — are different samples from the same workload
// distribution, so they can never be byte-compared against the exact
// tier; what keeps them honest is a statistical contract: on the
// headline figures, each tier's per-scheme delta from exact must be
// small relative to the smallest gap *between schemes* — the quantity
// the figures exist to discriminate. ValidateTiers measures both sides
// of that contract across a seed sweep and emits a machine-readable
// report that CI gates on (cmd/tiercheck) and EXPERIMENTS.md records.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Default pass criteria for TierCheckConfig.
const (
	// DefaultGapFraction: a figure passes when its largest tier delta
	// is at most this fraction of its smallest between-scheme gap.
	DefaultGapFraction = 0.5
	// DefaultGapFloor: scheme pairs closer than this are near-ties the
	// figure does not discriminate (e.g. the static-energy figure pins
	// Unmanaged, UCP and FairShare at ~1.0 by construction); they are
	// excluded from the between-scheme gap, and a figure with no
	// resolvable gap at all falls back to the floor as denominator.
	DefaultGapFloor = 0.02
)

// TierCheckConfig parameterises ValidateTiers.
type TierCheckConfig struct {
	Scale sim.Scale // TestScale if zero
	// Seeds is the seed sweep; every tier runs at every seed and the
	// compared values are seed means. Defaults to 1..5.
	Seeds     []uint64
	Threshold float64 // CoopPart/DynCPE threshold; DefaultThreshold if 0
	Workers   int     // concurrent simulations; GOMAXPROCS if 0
	// MaxGroups caps the two-core groups per figure (0 = all 14) so CI
	// smokes stay cheap.
	MaxGroups   int
	GapFraction float64 // DefaultGapFraction if 0
	GapFloor    float64 // DefaultGapFloor if 0
	// Store is the optional persistent result cache (nil = in-memory
	// only); every per-seed runner of the sweep shares it.
	Store *store.Store
	// Remote is the optional experiment server layer (nil = compute
	// locally); every per-seed runner of the sweep shares it — the
	// client is seed-agnostic, each runner stamps its own seed into
	// the requests.
	Remote Remote
	// Checkpoints is the optional checkpoint manager (nil gets each
	// runner a memory-only one); every per-seed runner shares it —
	// warm-up keys carry the seed, so sharing the manager never
	// aliases runs.
	Checkpoints *ckpt.Manager
	// Tiers lists the statistical tiers validated against the exact
	// baseline; empty means both FastForward and SetSampled. The
	// set-sampled tier's stride comes from Scale.SampleStride (0 =
	// sim.DefaultSampleStride).
	Tiers []sim.Fidelity
}

// TierDelta is one (scheme, tier) seed-mean figure value against the
// exact baseline.
type TierDelta struct {
	Scheme string  `json:"scheme"`
	Tier   string  `json:"tier"`
	Exact  float64 `json:"exact"`
	Value  float64 `json:"value"`
	Delta  float64 `json:"delta"`
}

// TierFigure is the tier comparison of one headline figure: the AVG
// (geomean over groups, normalised to FairShare) column per scheme.
type TierFigure struct {
	ID       string      `json:"id"`
	Deltas   []TierDelta `json:"deltas"`
	MaxDelta float64     `json:"max_delta"`
	// MinGap is the smallest between-scheme gap of the exact tier
	// (near-ties below GapFloor excluded); 0 when no pair resolves.
	MinGap float64 `json:"min_gap"`
	// Ratio is MaxDelta over MinGap (or over GapFloor when no pair
	// resolves); the figure passes when Ratio <= GapFraction.
	Ratio float64 `json:"ratio"`
	Pass  bool    `json:"pass"`
}

// TierReport is the machine-readable output of ValidateTiers.
type TierReport struct {
	Scale       string       `json:"scale"`
	Seeds       []uint64     `json:"seeds"`
	Tiers       []string     `json:"tiers"`
	Groups      int          `json:"groups"`
	GapFraction float64      `json:"gap_fraction"`
	GapFloor    float64      `json:"gap_floor"`
	Figures     []TierFigure `json:"figures"`
	Simulations uint64       `json:"simulations"`
	Pass        bool         `json:"pass"`
}

// tierMetrics are the per-figure values of one (seed, scheme, tier)
// cell: geomean over the groups of the metric normalised to the same
// tier's FairShare run — exactly the AVG column of Figures 5/6/7.
type tierMetrics struct{ ws, dyn, stat float64 }

// tierFigureIDs names the compared figures in report order.
var tierFigureIDs = []string{"Fig5-WS", "Fig6-DynEnergy", "Fig7-StaticPower"}

func (m tierMetrics) value(fig int) float64 {
	switch fig {
	case 0:
		return m.ws
	case 1:
		return m.dyn
	default:
		return m.stat
	}
}

// ValidateTiers runs the exact tier plus every configured statistical
// tier across the seed sweep and checks the statistical-equivalence
// contract figure by figure. The returned report is complete even when
// the contract fails (Pass is per-figure and overall); the error is
// reserved for runs that could not execute.
func ValidateTiers(cfg TierCheckConfig) (*TierReport, error) {
	if cfg.Scale.Name == "" {
		cfg.Scale = sim.TestScale()
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []uint64{1, 2, 3, 4, 5}
	}
	if cfg.GapFraction == 0 {
		cfg.GapFraction = DefaultGapFraction
	}
	if cfg.GapFloor == 0 {
		cfg.GapFloor = DefaultGapFloor
	}
	if len(cfg.Tiers) == 0 {
		cfg.Tiers = []sim.Fidelity{sim.FidelityFastForward, sim.FidelitySetSampled}
	}
	groups := workload.Groups2
	if cfg.MaxGroups > 0 && cfg.MaxGroups < len(groups) {
		groups = groups[:cfg.MaxGroups]
	}
	tiers := append([]sim.Fidelity{sim.FidelityExact}, cfg.Tiers...)

	// sums[fig][scheme][tier] accumulates the per-seed figure values;
	// tier index 0 is the exact baseline.
	sums := make([][][]float64, len(tierFigureIDs))
	for i := range sums {
		sums[i] = make([][]float64, len(sim.AllSchemes))
		for j := range sums[i] {
			sums[i][j] = make([]float64, len(tiers))
		}
	}
	var sims uint64
	for _, seed := range cfg.Seeds {
		r := NewRunner(Config{
			Scale: cfg.Scale, Seed: seed,
			Threshold: cfg.Threshold, Workers: cfg.Workers,
			Store: cfg.Store, Remote: cfg.Remote, Checkpoints: cfg.Checkpoints,
		})
		// One fan-out per seed: both tiers' (group, scheme) runs plus
		// Equation 1's tier-matched solo runs and the DynCPE profiles.
		var reqs []Request
		for _, fid := range tiers {
			for _, g := range groups {
				for _, s := range sim.AllSchemes {
					reqs = append(reqs, Request{Group: g, Scheme: s,
						Threshold: r.cfg.Threshold, Fidelity: fid})
				}
			}
		}
		runs, err := r.RunAll(reqs, true)
		if err != nil {
			return nil, err
		}
		// byTier is [tier][group][scheme].
		var byTier [][][]*sim.Results
		for tier := range slices.Chunk(runs, len(groups)*len(sim.AllSchemes)) {
			byTier = append(byTier, slices.Collect(slices.Chunk(tier, len(sim.AllSchemes))))
		}
		for si := range sim.AllSchemes {
			for ti, fid := range tiers {
				m, err := r.tierCell(byTier[ti], si, fid)
				if err != nil {
					return nil, err
				}
				for fi := range sums {
					sums[fi][si][ti] += m.value(fi)
				}
			}
		}
		sims += r.Simulations()
	}

	report := &TierReport{
		Scale:       cfg.Scale.Name,
		Seeds:       cfg.Seeds,
		Groups:      len(groups),
		GapFraction: cfg.GapFraction,
		GapFloor:    cfg.GapFloor,
		Simulations: sims,
		Pass:        true,
	}
	for _, fid := range cfg.Tiers {
		report.Tiers = append(report.Tiers, fid.String())
	}
	n := float64(len(cfg.Seeds))
	for fi, id := range tierFigureIDs {
		fig := TierFigure{ID: id}
		exact := make([]float64, len(sim.AllSchemes))
		for si := range sim.AllSchemes {
			exact[si] = sums[fi][si][0] / n
		}
		for ti, fid := range cfg.Tiers {
			for si, scheme := range sim.AllSchemes {
				val := sums[fi][si][ti+1] / n
				d := TierDelta{
					Scheme: string(scheme), Tier: fid.String(),
					Exact: exact[si], Value: val,
					Delta: math.Abs(exact[si] - val),
				}
				fig.Deltas = append(fig.Deltas, d)
				if d.Delta > fig.MaxDelta {
					fig.MaxDelta = d.Delta
				}
			}
		}
		fig.MinGap = minSchemeGap(exact, cfg.GapFloor)
		denom := fig.MinGap
		if denom == 0 {
			denom = cfg.GapFloor
		}
		fig.Ratio = fig.MaxDelta / denom
		fig.Pass = fig.Ratio <= cfg.GapFraction
		if !fig.Pass {
			report.Pass = false
		}
		report.Figures = append(report.Figures, fig)
	}
	return report, nil
}

// tierCell computes one (scheme, tier) cell from one tier's runs by
// [group][scheme]: geomean over groups of the metric normalised to the
// same tier's FairShare run.
func (r *Runner) tierCell(rows [][]*sim.Results, scheme int, fid sim.Fidelity) (tierMetrics, error) {
	wsR := make([]float64, 0, len(rows))
	dynR := make([]float64, 0, len(rows))
	statR := make([]float64, 0, len(rows))
	fairCol := slices.Index(sim.AllSchemes, sim.FairShare)
	for _, row := range rows {
		fair, res := row[fairCol], row[scheme]
		fairWS, err := r.WeightedSpeedup(fair)
		if err != nil {
			return tierMetrics{}, err
		}
		ws, err := r.WeightedSpeedup(res)
		if err != nil {
			return tierMetrics{}, err
		}
		if fairWS == 0 || fair.Dynamic == 0 || fair.StaticPower == 0 {
			return tierMetrics{}, fmt.Errorf("experiments: zero FairShare baseline for %s at %s", fair.Group, fid)
		}
		wsR = append(wsR, ws/fairWS)
		dynR = append(dynR, res.Dynamic/fair.Dynamic)
		statR = append(statR, res.StaticPower/fair.StaticPower)
	}
	return tierMetrics{
		ws:   metrics.GeoMean(wsR),
		dyn:  metrics.GeoMean(dynR),
		stat: metrics.GeoMean(statR),
	}, nil
}

// minSchemeGap returns the smallest pairwise distance among the exact
// per-scheme values, ignoring near-ties under floor; 0 when no pair
// resolves.
func minSchemeGap(vals []float64, floor float64) float64 {
	min := 0.0
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			gap := math.Abs(vals[i] - vals[j])
			if gap < floor {
				continue
			}
			if min == 0 || gap < min {
				min = gap
			}
		}
	}
	return min
}

// WriteJSON emits the report for CI artifacts and EXPERIMENTS.md.
func (r *TierReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable emits the report as an aligned human-readable table.
func (r *TierReport) WriteTable(w io.Writer) error {
	status := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	if _, err := fmt.Fprintf(w, "tier equivalence: scale=%s seeds=%v tiers=%v groups=%d gap-fraction=%.2f gap-floor=%.3f (%d simulations)\n",
		r.Scale, r.Seeds, r.Tiers, r.Groups, r.GapFraction, r.GapFloor, r.Simulations); err != nil {
		return err
	}
	for _, fig := range r.Figures {
		fmt.Fprintf(w, "\n%s  max-delta=%.4f min-gap=%.4f ratio=%.3f  %s\n",
			fig.ID, fig.MaxDelta, fig.MinGap, fig.Ratio, status(fig.Pass))
		fmt.Fprintf(w, "  %-10s %-12s %10s %10s %9s\n", "scheme", "tier", "exact", "value", "delta")
		for _, d := range fig.Deltas {
			fmt.Fprintf(w, "  %-10s %-12s %10.4f %10.4f %9.4f\n", d.Scheme, d.Tier, d.Exact, d.Value, d.Delta)
		}
	}
	_, err := fmt.Fprintf(w, "\noverall: %s\n", status(r.Pass))
	return err
}
