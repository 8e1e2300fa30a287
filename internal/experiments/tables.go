package experiments

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table1 renders the hardware-overhead table. Both the published
// numbers (which assume 2048 sets) and the numbers computed from the
// simulated geometry (4096 sets at full scale) are shown; see
// core.PaperTable1.
func (r *Runner) Table1(w io.Writer) error {
	full := sim.FullScale()
	fmt.Fprintln(w, "Table 1: hardware overheads of Cooperative Partitioning")
	fmt.Fprintf(w, "%-28s %18s %18s\n", "Hardware", "Two Core (bits)", "Four Core (bits)")
	two, twoGeom := core.PaperTable1(2, full.L2TwoCore.Ways, full.L2TwoCore.Sets())
	four, fourGeom := core.PaperTable1(4, full.L2FourCore.Ways, full.L2FourCore.Sets())
	rows := []struct {
		name      string
		two, four int
	}{
		{"Takeover Bit Vectors", two.TakeoverBits(), four.TakeoverBits()},
		{"RAP", two.RAPBits(), four.RAPBits()},
		{"WAP", two.WAPBits(), four.WAPBits()},
		{"Total", two.TotalBits(), four.TotalBits()},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-28s %18d %18d\n", row.name, row.two, row.four)
	}
	fmt.Fprintf(w, "\n(as published, 2048 sets; with the geometric 4096 sets the totals are %d and %d bits)\n",
		twoGeom.TotalBits(), fourGeom.TotalBits())
	return nil
}

// Table2 renders the system configuration at the runner's scale next to
// the paper's full-scale values.
func (r *Runner) Table2(w io.Writer) error {
	full := sim.FullScale()
	sc := r.cfg.Scale
	fmt.Fprintln(w, "Table 2: system configuration")
	rows := [][3]string{
		{"Parameter", "Paper (full scale)", fmt.Sprintf("This run (%s scale)", sc.Name)},
		{"Processor", "4-wide, out-of-order, 7 stage pipeline", "same"},
		{"ROB", "128 entry", "same"},
		{"LSQ", "48 entry", "same"},
		{"Branch Pred.", "Gshare, min 10 cycle penalty", "same"},
		{"BTB", "1024 entry, 4-way", "same"},
		{"L1 DCache", cacheDesc(full.L1D), cacheDesc(sc.L1D)},
		{"Shared L2 (2-core)", cacheDesc(full.L2TwoCore), cacheDesc(sc.L2TwoCore)},
		{"Shared L2 (4-core)", cacheDesc(full.L2FourCore), cacheDesc(sc.L2FourCore)},
		{"MSHR", fmt.Sprintf("%d entry", full.MSHRs), fmt.Sprintf("%d entry", sc.MSHRs)},
		{"Memory", memDesc(full), memDesc(sc)},
		{"Phase interval", fmt.Sprintf("%d cycles", full.PhaseCycles), fmt.Sprintf("%d cycles", sc.PhaseCycles)},
		{"Instructions/app", fmt.Sprintf("%d", full.InstrPerApp), fmt.Sprintf("%d", sc.InstrPerApp)},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-20s %-42s %s\n", row[0], row[1], row[2])
	}
	return nil
}

func cacheDesc(c cache.Config) string {
	return fmt.Sprintf("%dkB, %dB lines, %d-way, %d cycle lat",
		c.SizeBytes/1024, c.LineBytes, c.Ways, c.Latency)
}

func memDesc(s sim.Scale) string {
	return fmt.Sprintf("%d banks, %d cycle lat, %d outstanding",
		s.Mem.Banks, s.Mem.LatencyCycles, s.Mem.MaxOutstanding)
}

// Table3Row is one benchmark's measured classification.
type Table3Row struct {
	Benchmark    string
	PaperMPKI    float64
	PaperClass   workload.Class
	MeasuredMPKI float64
	Measured     workload.Class
}

// Table3 measures every benchmark's solo LLC MPKI on the two-core
// geometry and classifies it, mirroring the paper's Table 3. The
// nineteen solo runs are independent and fan out over the worker pool.
func (r *Runner) Table3() ([]Table3Row, error) {
	reqs := make([]Request, 0, len(workload.All()))
	for _, b := range workload.All() {
		reqs = append(reqs, solo(KindAlone, b.Name, 2, r.cfg.Fidelity))
	}
	runs, err := r.RunAll(reqs, false)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for i, b := range workload.All() {
		mpki := runs[i].MPKI[0]
		rows = append(rows, Table3Row{
			Benchmark:    b.Name,
			PaperMPKI:    b.PaperMPKI,
			PaperClass:   b.Class,
			MeasuredMPKI: mpki,
			Measured:     workload.ClassOf(mpki),
		})
	}
	return rows, nil
}

// WriteTable3 renders Table3 results.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: workload classification by LLC misses per kilo-instruction")
	fmt.Fprintf(w, "%-12s %10s %8s %12s %10s\n", "Benchmark", "PaperMPKI", "Class", "MeasuredMPKI", "Measured")
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s %10.2f %8s %12.2f %10s\n",
			row.Benchmark, row.PaperMPKI, row.PaperClass, row.MeasuredMPKI, row.Measured)
	}
}

// Table4 renders the workload groupings.
func (r *Runner) Table4(w io.Writer) error {
	fmt.Fprintln(w, "Table 4: workload groupings")
	fmt.Fprintf(w, "%-8s %-40s\n", "Group", "Benchmarks")
	for _, g := range workload.Groups2 {
		fmt.Fprintf(w, "%-8s %v\n", g.Name, g.Benchmarks)
	}
	for _, g := range workload.Groups4 {
		fmt.Fprintf(w, "%-8s %v\n", g.Name, g.Benchmarks)
	}
	return nil
}
