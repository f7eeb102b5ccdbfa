// Command tsuebench regenerates the TSUE paper's tables and figures on the
// simulated 16-node ECFS cluster.
//
// Usage:
//
//	tsuebench -exp all                 # every experiment, quick scale
//	tsuebench -exp fig5 -scale full    # one experiment at paper-grid scale
//	tsuebench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tsue/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	scale := flag.String("scale", "quick", "quick | full")
	ops := flag.Int("ops", 0, "override total ops per run")
	fileMB := flag.Int64("filemb", 0, "override working-set size (MiB)")
	jsonOut := flag.Bool("json", false, "also write machine-readable results to BENCH_<exp>.json")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	exps := harness.Experiments()
	if *list {
		names := make([]string, 0, len(exps))
		for n := range exps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	fn, ok := exps[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "tsuebench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	var s harness.Scale
	switch *scale {
	case "quick":
		s = harness.QuickScale()
	case "full":
		s = harness.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "tsuebench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *ops > 0 {
		s.Ops = *ops
	}
	if *fileMB > 0 {
		s.FileMB = *fileMB
	}
	if *jsonOut {
		s.Sink = &harness.Sink{}
	}
	start := time.Now()
	if err := fn(os.Stdout, s); err != nil {
		fmt.Fprintf(os.Stderr, "tsuebench: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	if *jsonOut {
		out := harness.BenchFile{
			Experiment: *exp,
			Scale:      *scale,
			Ops:        s.Ops,
			FileMB:     s.FileMB,
			WallMs:     wall.Milliseconds(),
			Metrics:    s.Sink.Metrics,
		}
		path, err := out.Write(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsuebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n(wrote %s: %d metrics)\n", path, len(out.Metrics))
	}
	fmt.Printf("\n(%s scale, wall time %v)\n", *scale, wall.Round(time.Millisecond))
}
