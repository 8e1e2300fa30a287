package experiments

// The many-core scaling sweep: the paper evaluates Cooperative
// Partitioning only on 2- and 4-core CMPs (Table 2), but its central
// claim — way-aligned partitioning with gated-Vdd power-off stays
// cheap as sharers multiply — matters most where real many-core parts
// already operate. The sweep runs every scheme at cores ∈ {2,4,8,16}
// on the extrapolated Table 2 hierarchies (sim.Scale.L2For) and
// reports weighted speedup and total LLC energy, each normalised to
// Fair Share at the same core count, geometric-mean across the core
// count's workload groups. All runs flow through the memoising runner,
// so the sweep shares simulations with the figures and is bit-identical
// at any worker count.

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ScalingCoreCounts is the default core-count axis of the sweep.
var ScalingCoreCounts = []int{2, 4, 8, 16}

// scalingGroupsFor returns up to per representative groups for a core
// count (0 = all of them).
func scalingGroupsFor(cores, per int) ([]workload.Group, error) {
	groups, err := groupsFor(cores)
	if err != nil {
		return nil, err
	}
	if per > 0 && per < len(groups) {
		groups = groups[:per]
	}
	return groups, nil
}

// ScalingSweep runs every scheme at each core count over up to
// groupsPer groups (0 = all) and returns two figures: "ScalingWS"
// (geomean weighted speedup) and "ScalingEnergy" (geomean total LLC
// energy), both normalised to the Fair Share run of the same group and
// core count.
func (r *Runner) ScalingSweep(counts []int, groupsPer int) ([]metrics.Figure, error) {
	if len(counts) == 0 {
		counts = ScalingCoreCounts
	}
	perCount := make([]int, len(counts))
	var groups []workload.Group
	for ci, cores := range counts {
		gs, err := scalingGroupsFor(cores, groupsPer)
		if err != nil {
			return nil, err
		}
		perCount[ci] = len(gs)
		groups = append(groups, gs...)
	}
	// One fan-out for the whole sweep: every (group, scheme) run plus
	// Equation 1's solo runs and the DynCPE profiles.
	rows, err := r.RunCross(groups, sim.AllSchemes, true)
	if err != nil {
		return nil, err
	}
	fairCol := slices.Index(sim.AllSchemes, sim.FairShare)

	ws := metrics.Figure{
		ID:     "ScalingWS",
		Title:  "Weighted speedup scaling with core count",
		XLabel: "cores",
		YLabel: "weighted speedup normalised to Fair Share (geomean over groups)",
	}
	en := metrics.Figure{
		ID:     "ScalingEnergy",
		Title:  "Total LLC energy scaling with core count",
		XLabel: "cores",
		YLabel: "total energy normalised to Fair Share (geomean over groups)",
	}
	for _, cores := range counts {
		label := strconv.Itoa(cores)
		ws.X = append(ws.X, label)
		en.X = append(en.X, label)
	}

	for si, scheme := range sim.AllSchemes {
		wsVals := make([]float64, len(counts))
		enVals := make([]float64, len(counts))
		first := 0
		for ci, n := range perCount {
			wsRatios := make([]float64, 0, n)
			enRatios := make([]float64, 0, n)
			for _, row := range rows[first : first+n] {
				fair, res := row[fairCol], row[si]
				fairWS, err := r.WeightedSpeedup(fair)
				if err != nil {
					return nil, err
				}
				schemeWS, err := r.WeightedSpeedup(res)
				if err != nil {
					return nil, err
				}
				fairEn := fair.Dynamic + fair.Static
				if fairWS == 0 || fairEn == 0 {
					return nil, fmt.Errorf("scaling: zero Fair Share baseline for %s", fair.Group)
				}
				wsRatios = append(wsRatios, schemeWS/fairWS)
				enRatios = append(enRatios, (res.Dynamic+res.Static)/fairEn)
			}
			wsVals[ci] = metrics.GeoMean(wsRatios)
			enVals[ci] = metrics.GeoMean(enRatios)
			first += n
		}
		ws.Series = append(ws.Series, metrics.NamedSeries{Name: string(scheme), Values: wsVals})
		en.Series = append(en.Series, metrics.NamedSeries{Name: string(scheme), Values: enVals})
	}
	return []metrics.Figure{ws, en}, nil
}
