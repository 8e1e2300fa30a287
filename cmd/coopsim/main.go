// Command coopsim runs one multiprogrammed workload on the simulated
// CMP under a chosen LLC partitioning scheme and reports everything the
// run produced: per-application IPC and MPKI, weighted speedup against
// solo runs, energy, way allocations and transition statistics.
//
// Usage:
//
//	coopsim [-group G2-8] [-scheme CoopPart] [-compare] [shared flags]
//
// The shared flags are documented in internal/cliutil; coopsim takes
// all of them, -seed, -fidelity, -threshold and the profiles included.
// With -compare, all five schemes run on the group and a comparison
// table is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	env := cliutil.New("coopsim", cliutil.Flags{Seed: true, Fidelity: true, Threshold: true, Profiling: true})
	group := flag.String("group", "G2-8", "workload group from Table 4 (G2-1..G2-14, G4-1..G4-14)")
	scheme := flag.String("scheme", "CoopPart",
		"LLC scheme: Unmanaged, FairShare, DynCPE, UCP or CoopPart")
	compare := flag.Bool("compare", false, "run every scheme and print a comparison")
	cfg := env.Parse()
	g, err := workload.FindGroup(*group)
	if err != nil {
		env.Fatal(err)
	}
	env.Open(&cfg)
	defer env.Close()
	runner := experiments.NewRunner(cfg)

	if *compare {
		err = compareAll(runner, g)
	} else {
		err = report(runner, g, sim.SchemeKind(*scheme))
	}
	if err != nil {
		env.Fatal(err)
	}
}

func report(r *experiments.Runner, g workload.Group, scheme sim.SchemeKind) error {
	res, err := r.RunGroup(g, scheme)
	if err != nil {
		return err
	}
	fmt.Printf("scheme %s on %s (%v)\n", res.Scheme, res.Group, res.Benchmarks)
	if res.Fidelity != sim.FidelityExact {
		fmt.Printf("fidelity %s (statistical tier, not byte-comparable to exact runs)\n", res.Fidelity)
	}
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tIPC\tMPKI\tL1 miss rate")
	for i, b := range res.Benchmarks {
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.1f%%\n", b, res.IPC[i], res.MPKI[i], 100*res.L1MissRate[i])
	}
	w.Flush()

	if ws, err := r.WeightedSpeedup(res); err == nil {
		fmt.Printf("\nweighted speedup (vs solo): %.3f\n", ws)
	}
	fmt.Printf("cycles: %d, LLC accesses: %d (%.2f tag ways probed per access)\n",
		res.Cycles, res.SchemeStats.TotalAccesses(), res.AvgWaysConsulted)
	fmt.Printf("dynamic energy: %.0f, static power: %.3f/cycle\n", res.Dynamic, res.StaticPower)
	fmt.Printf("final way allocation: %v\n", res.Allocations)
	fmt.Printf("decisions: %d, repartitions: %d, writebacks to memory: %d\n",
		res.SchemeStats.Decisions, res.SchemeStats.Repartitions, res.SchemeStats.WritebacksToMem)
	tr := res.Transition
	if tr.WaysMoved > 0 {
		fmt.Printf("way transfers: %d completed (%d ways), avg %.0f cycles/way, %d lines flushed\n",
			tr.Completed, tr.WaysMoved, tr.AvgTransferCycles(), tr.FlushedLines)
	}
	return nil
}

func compareAll(r *experiments.Runner, g workload.Group) error {
	fmt.Printf("comparison on %s (%v), normalised to FairShare\n\n", g.Name, g.Benchmarks)
	// All five scheme runs (and the solo runs weighted speedup needs)
	// are independent: warm them concurrently, then collect.
	if err := r.PrefetchSpeedup([]workload.Group{g}, sim.AllSchemes); err != nil {
		return err
	}
	fair, err := r.RunGroup(g, sim.FairShare)
	if err != nil {
		return err
	}
	fairWS, err := r.WeightedSpeedup(fair)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tweighted speedup\tdynamic energy\tstatic power\tways/access\tallocation")
	for _, kind := range sim.AllSchemes {
		res, err := r.RunGroup(g, kind)
		if err != nil {
			return err
		}
		ws, err := r.WeightedSpeedup(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.2f\t%v\n",
			res.Scheme, ws/fairWS, res.Dynamic/fair.Dynamic,
			res.StaticPower/fair.StaticPower, res.AvgWaysConsulted, res.Allocations)
	}
	return w.Flush()
}
