// Command benchtables regenerates the paper's evaluation artifacts:
//
//	benchtables -table fig5    # Figure 5: sizes and instruction counts
//	benchtables -table fig6    # Figure 6: checks before/after optimization
//	benchtables -claims        # section 7/8 prose claims, paper vs measured
//	benchtables -all           # everything
//	benchtables -json out.json # every table cell + claims + per-stage
//	                           # latency histogram summaries + the
//	                           # reference/compiled run comparison +
//	                           # the warm-vs-cold session-pool
//	                           # comparison + the interprocedural-tier
//	                           # comparison as JSON ("-" = stdout)
package main

import (
	"flag"
	"fmt"
	"os"

	"safetsa/internal/bench"
)

func main() {
	table := flag.String("table", "", "table to print: fig5, fig6, or wire")
	claims := flag.Bool("claims", false, "check the prose claims")
	all := flag.Bool("all", false, "print every table and the claims")
	experiments := flag.Bool("experiments", false, "emit the EXPERIMENTS.md body (Markdown)")
	jsonOut := flag.String("json", "", "write the tables and claims as JSON to this file (\"-\" = stdout)")
	flag.Parse()

	rows, timings, err := bench.MeasureAllTimed()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		rc, err := bench.MeasureRunComparison()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		wp, err := bench.MeasureWarmPool()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		mo, err := bench.MeasureModuleOpt()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		wc, err := bench.MeasureWire(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		data, err := bench.FormatJSONTimed(rows, timings, rc, wp, mo, wc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		return
	}
	if *experiments {
		fmt.Print(bench.FormatExperiments(rows))
		return
	}
	printed := false
	if *all || *table == "fig5" {
		fmt.Println(bench.FormatFig5(rows))
		printed = true
	}
	if *all || *table == "fig6" {
		fmt.Println(bench.FormatFig6(rows))
		printed = true
	}
	if *all || *table == "wire" {
		wc, err := bench.MeasureWire(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatWire(wc))
		printed = true
	}
	if *all || *claims {
		fmt.Println(bench.FormatClaims(rows))
		printed = true
	}
	if !printed {
		fmt.Println(bench.FormatFig5(rows))
		fmt.Println(bench.FormatFig6(rows))
		fmt.Println(bench.FormatClaims(rows))
	}
}
