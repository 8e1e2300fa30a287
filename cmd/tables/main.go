// Command tables regenerates Tables 1-4 of the paper.
//
// Usage:
//
//	tables [-table N] [shared flags]
//
// The shared flags are documented in internal/cliutil; tables takes
// -seed and -fidelity but neither -threshold nor the profiles.
// Without -table, all four tables are printed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	env := cliutil.New("tables", cliutil.Flags{Seed: true, Fidelity: true})
	table := flag.Int("table", 0, "table number (1-4; 0 = all)")
	cfg := env.Parse()
	env.Open(&cfg)
	defer env.Close()
	r := experiments.NewRunner(cfg)

	run := func(n int) error {
		switch n {
		case 1:
			return r.Table1(os.Stdout)
		case 2:
			return r.Table2(os.Stdout)
		case 3:
			rows, err := r.Table3()
			if err != nil {
				return err
			}
			experiments.WriteTable3(os.Stdout, rows)
			return nil
		case 4:
			return r.Table4(os.Stdout)
		default:
			return fmt.Errorf("no table %d", n)
		}
	}

	if *table != 0 {
		if err := run(*table); err != nil {
			env.Fatal(err)
		}
		return
	}
	for n := 1; n <= 4; n++ {
		if err := run(n); err != nil {
			env.Fatal(err)
		}
		fmt.Println()
	}
}
