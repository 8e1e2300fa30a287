// Command report regenerates the complete evaluation — Tables 1-4,
// Figures 5-16, the ablations and the extensions — in one run (sharing
// simulations across figures) and writes a self-contained markdown
// report plus per-figure CSV files.
//
// Usage:
//
//	report [-out report] [shared flags]
//
// The shared flags are documented in internal/cliutil; report takes
// -seed, -fidelity and the profiles but not -threshold.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func main() {
	env := cliutil.New("report", cliutil.Flags{Seed: true, Fidelity: true, Profiling: true})
	out := flag.String("out", "report", "output directory")
	cfg := env.Parse()
	env.Open(&cfg)
	defer env.Close()
	if err := run(experiments.NewRunner(cfg), cfg, *out); err != nil {
		env.Fatal(err)
	}
	fmt.Printf("report written to %s\n", filepath.Join(*out, "report.md"))
}

func run(r *experiments.Runner, cfg experiments.Config, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	md, err := os.Create(filepath.Join(out, "report.md"))
	if err != nil {
		return err
	}
	defer md.Close()

	fmt.Fprintf(md, "# Cooperative Partitioning — regenerated evaluation\n\n")
	fmt.Fprintf(md, "scale: %s, seed: %d, generated: %s\n\n",
		cfg.Scale.Name, cfg.Seed, time.Now().Format(time.RFC3339))
	if cfg.Fidelity != sim.FidelityExact {
		fmt.Fprintf(md, "**fidelity: %s** — statistical RNG-walk tier, not byte-comparable "+
			"to exact-tier reports (see cmd/tiercheck for the equivalence contract)\n\n", cfg.Fidelity)
	}

	// Tables.
	fmt.Fprintf(md, "## Tables\n\n```\n")
	for i, table := range []func(io.Writer) error{
		r.Table1, r.Table2,
		func(w io.Writer) error {
			rows, err := r.Table3()
			if err == nil {
				experiments.WriteTable3(w, rows)
			}
			return err
		},
		r.Table4,
	} {
		if i > 0 {
			fmt.Fprintln(md)
		}
		if err := table(md); err != nil {
			return err
		}
	}
	fmt.Fprintf(md, "```\n\n")

	// Figures.
	fmt.Fprintf(md, "## Figures\n\n")
	for n := 5; n <= 16; n++ {
		fig, err := r.Figure(n)
		if err != nil {
			return err
		}
		if err := writeFigure(md, out, fig); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: figure %d done\n", n)
	}

	// Ablations and extensions.
	fmt.Fprintf(md, "## Ablations\n\n")
	for _, gen := range []func() (metrics.Figure, error){
		r.AblationVictim, r.AblationTakeover, r.AblationGating,
		r.AblationRandomVictim, r.ExtDrowsy,
	} {
		fig, err := gen()
		if err != nil {
			return err
		}
		if err := writeFigure(md, out, fig); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: %s done\n", fig.ID)
	}

	// Many-core scaling sweep (beyond the paper's 2/4-core evaluation):
	// two representative groups per core count keep the report
	// tractable; cmd/figures -sweep=scaling runs the full group lists.
	fmt.Fprintf(md, "## Scaling sweep\n\n")
	sweepFigs, err := r.ScalingSweep(nil, 2)
	if err != nil {
		return err
	}
	for _, fig := range sweepFigs {
		if err := writeFigure(md, out, fig); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: %s done\n", fig.ID)
	}

	hr, err := r.Headroom()
	if err != nil {
		return err
	}
	fmt.Fprintf(md, "## TDP headroom (paper conclusion)\n\n```\n")
	fmt.Fprintf(md, "%-8s %14s %12s\n", "group", "chip saving", "freq uplift")
	for _, row := range hr {
		fmt.Fprintf(md, "%-8s %13.1f%% %11.2f%%\n",
			row.Group, 100*row.SavedFraction, 100*row.FreqUplift)
	}
	fmt.Fprintf(md, "```\n")
	return md.Close()
}

func writeFigure(md io.Writer, dir string, fig metrics.Figure) error {
	fmt.Fprintf(md, "### %s\n\n```\n", fig.ID)
	if err := fig.WriteTable(md); err != nil {
		return err
	}
	fmt.Fprintf(md, "```\n\n")
	csv, err := os.Create(filepath.Join(dir, fig.ID+".csv"))
	if err != nil {
		return err
	}
	if err := fig.WriteCSV(csv); err != nil {
		csv.Close()
		return err
	}
	return csv.Close()
}
