// Command tables regenerates every table and headline number of the
// paper's evaluation section:
//
//	-table 1   polysemic-term statistics (UMLS/MeSH × EN/FR/ES)
//	-table 2   the five internal indexes on a known-k entity
//	-table e1  sense-number prediction accuracy grid (paper: 93.1% max)
//	-table e2  polysemy detection classifier panel (paper: F ≈ 98%)
//	-table 3   top-10 position proposals for one held-out term
//	-table 4   linkage precision P@1/2/5/10 over held-out terms
//	-table all (default) everything in paper order
//
// All experiments run on the seeded synthetic substitutes described in
// DESIGN.md; -fast shrinks the workloads for a quick look.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"bioenrich/internal/cluster"
	"bioenrich/internal/experiments"
	"bioenrich/internal/senseind"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, e1, e2, 3, 4, all")
	seed := flag.Int64("seed", 1, "base random seed")
	scale := flag.Float64("scale", 1000, "Table 1 down-scale factor")
	fast := flag.Bool("fast", false, "shrink workloads (quick smoke run)")
	flag.Parse()
	ctx := context.Background()

	run := func(name string, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	want := func(name string) bool { return *table == "all" || *table == name }

	if want("1") {
		run("table 1", func() error {
			rows := experiments.Table1(*scale, *seed)
			experiments.WriteTable1(os.Stdout, rows, *scale)
			return nil
		})
	}
	if want("2") {
		run("table 2", func() error {
			rows, err := experiments.Table2(3, *seed)
			if err != nil {
				return err
			}
			experiments.WriteTable2(os.Stdout, rows)
			return nil
		})
	}
	if want("e1") {
		run("experiment E1", func() error {
			opts := experiments.DefaultE1Options()
			opts.Seed = *seed + 2
			if *fast {
				opts.Entities = 30
				opts.ContextsPerSense = 15
				opts.Algorithms = []cluster.Algorithm{cluster.Direct, cluster.RB}
				opts.Representations = []senseind.Representation{senseind.BagOfWords}
			}
			cells, err := experiments.E1(opts)
			if err != nil {
				return err
			}
			experiments.WriteE1(os.Stdout, cells)
			return nil
		})
	}
	if want("e2") {
		run("experiment E2", func() error {
			opts := experiments.DefaultE2Options()
			opts.Seed = *seed + 3
			if *fast {
				opts.Polysemic, opts.Monosemic = 16, 16
				opts.ContextsPerTerm = 20
				opts.Folds = 4
			}
			rows, err := experiments.E2(opts)
			if err != nil {
				return err
			}
			experiments.WriteE2(os.Stdout, rows)
			return nil
		})
	}
	if want("3") {
		run("table 3", func() error {
			res, err := experiments.Table3(*seed)
			if err != nil {
				return err
			}
			experiments.WriteTable3(os.Stdout, res)
			return nil
		})
	}
	if want("4") {
		run("table 4", func() error {
			opts := experiments.DefaultTable4Options()
			opts.Seed = *seed + 4
			if *fast {
				opts.Terms = 15
			}
			res, err := experiments.Table4(opts)
			if err != nil {
				return err
			}
			experiments.WriteTable4(os.Stdout, res)
			return nil
		})
	}
	if want("4a") {
		run("table 4a (expansion ablation)", func() error {
			opts := experiments.DefaultTable4Options()
			opts.Seed = *seed + 4
			if *fast {
				opts.Terms = 15
			}
			res, err := experiments.Table4A(opts)
			if err != nil {
				return err
			}
			experiments.WriteTable4A(os.Stdout, res)
			return nil
		})
	}
	if want("e3") {
		run("experiment E3 (measure ablation)", func() error {
			rows, err := experiments.E3(ctx, *seed+5)
			if err != nil {
				return err
			}
			experiments.WriteE3(os.Stdout, rows)
			return nil
		})
	}
	if want("e4") {
		run("experiment E4 (multilingual)", func() error {
			rows, err := experiments.E4(ctx, *seed+6)
			if err != nil {
				return err
			}
			experiments.WriteE4(os.Stdout, rows)
			return nil
		})
	}
	if want("e5") {
		run("experiment E5 (cluster quality)", func() error {
			entities, per := 60, 25
			if *fast {
				entities, per = 20, 12
			}
			cells, err := experiments.E5(entities, per, *seed+7)
			if err != nil {
				return err
			}
			experiments.WriteE5(os.Stdout, cells)
			return nil
		})
	}
}
