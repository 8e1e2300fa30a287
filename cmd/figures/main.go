// Command figures regenerates Figures 5-16 of the paper's evaluation as
// plain-text tables or CSV, plus the many-core scaling sweep that goes
// beyond the paper's 2/4-core evaluation.
//
// Usage:
//
//	figures [-fig N] [-csv] [shared flags]
//	figures -sweep scaling [-sweep-cores 2,4,8,16] [-sweep-groups N] [-csv] [shared flags]
//
// The shared flags are documented in internal/cliutil; figures takes
// all of them, -seed, -fidelity, -threshold and the profiles included.
// Without -fig, every data figure (5-16) is printed. Figures 1-4 are
// schematics with no data series; the takeover mechanics they
// illustrate are demonstrated by examples/takeover. With -sweep=scaling
// the scaling figures (weighted speedup and total energy vs core
// count) are printed instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	env := cliutil.New("figures", cliutil.Flags{Seed: true, Fidelity: true, Threshold: true, Profiling: true})
	fig := flag.Int("fig", 0, "figure number (5-16; 0 = all)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	sweep := flag.String("sweep", "", `sweep to run instead of figures ("scaling")`)
	sweepCores := flag.String("sweep-cores", "", "comma-separated core counts for -sweep=scaling (default 2,4,8,16)")
	sweepGroups := flag.Int("sweep-groups", 0, "groups per core count in the sweep (0 = all)")
	cfg := env.Parse()
	if *sweep != "" && *sweep != "scaling" {
		env.Fatal(fmt.Errorf("unknown sweep %q (scaling)", *sweep))
	}
	counts, err := parseCores(*sweepCores)
	if err != nil {
		env.Fatal(err)
	}
	env.Open(&cfg)
	defer env.Close()
	r := experiments.NewRunner(cfg)

	emit := func(f metrics.Figure, err error) {
		if err == nil {
			if *csv {
				err = f.WriteCSV(os.Stdout)
			} else {
				err = f.WriteTable(os.Stdout)
			}
		}
		if err != nil {
			env.Fatal(err)
		}
		fmt.Println()
	}
	if *sweep != "" {
		figs, err := r.ScalingSweep(counts, *sweepGroups)
		if err != nil {
			env.Fatal(err)
		}
		for _, f := range figs {
			emit(f, nil)
		}
		return
	}
	nums := []int{*fig}
	if *fig == 0 {
		nums = []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	}
	for _, n := range nums {
		emit(r.Figure(n))
	}
}

// parseCores parses a comma-separated core-count list ("" = default).
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core count %q: %v", part, err)
		}
		counts = append(counts, n)
	}
	return counts, nil
}
