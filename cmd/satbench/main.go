// Command satbench regenerates the paper's evaluation: every table of
// "BerkMin: A Fast and Robust Sat-Solver" (Tables 1-10) over the
// synthetically regenerated benchmark classes.
//
// Usage:
//
//	satbench -table 7                 # one table (medium scale)
//	satbench -table all -scale small  # everything, quickly
//
// Absolute runtimes differ from the paper's 2002 hardware; each report
// carries the paper's qualitative claim, and EXPERIMENTS.md records the
// paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"berkmin/internal/bench"
	"berkmin/internal/prof"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		table        = flag.String("table", "all", "table number 1-10, or 'all'")
		ablation     = flag.String("ablation", "", "run an ablation instead: youngfrac, restart, aging, nbtwo, minimize, phase, simplify, tiereddb, branching, or 'all'")
		jobs         = flag.Int("portfolio", 0, "bench the N-job parallel portfolio against sequential BerkMin instead of a table")
		cubeJobs     = flag.Int("cube", 0, "bench cube-and-conquer scaling (1,2,4,..,N workers vs sequential BerkMin) on the hard set, instead of a table")
		queryStream  = flag.Int("querystream", 0, "bench a K-query assumption stream: snapshot+pool reuse vs rebuild-per-query, instead of a table")
		ic3Depth     = flag.Int("ic3", 0, "bench an IC3/BMC deepening stream to this depth: one group-incremental solver vs rebuild-per-depth, instead of a table")
		serverStream = flag.Int("server", 0, "bench a K-query assumption stream through a live satserved daemon vs the in-process pool, instead of a table")
		scale        = flag.String("scale", "medium", "instance scale: small, medium, large")
		maxConflicts = flag.Uint64("max-conflicts", 2_000_000, "per-run conflict budget (0 = unlimited)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "per-run wall-clock budget (0 = unlimited)")
		preprocess   = flag.Bool("simplify", true, "preprocess each instance before solving (the simplify ablation controls this per row itself)")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile (post-GC live set) to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProf()

	var sc bench.Scale
	switch *scale {
	case "small":
		sc = bench.Small
	case "medium":
		sc = bench.Medium
	case "large":
		sc = bench.Large
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		return 1
	}
	lim := bench.Limits{MaxConflicts: *maxConflicts, MaxTime: *timeout, Simplify: *preprocess}
	if *preprocess {
		// The paper's solvers did not preprocess; flag it so table numbers
		// are never mistaken for paper-exact conditions.
		fmt.Fprintln(os.Stderr, "c preprocessing enabled (-simplify); pass -simplify=false for the paper-exact pipeline")
	}

	if *queryStream != 0 {
		if *queryStream < 1 {
			fmt.Fprintf(os.Stderr, "-querystream needs a positive query count (got %d)\n", *queryStream)
			return 1
		}
		r := bench.QueryStream(bench.QueryStreamInstance(sc), *queryStream, *preprocess)
		fmt.Print(bench.RenderQueryStream(r))
		if r.Mismatches > 0 {
			return 1
		}
		return 0
	}

	if *ic3Depth != 0 {
		if *ic3Depth < 1 {
			fmt.Fprintf(os.Stderr, "-ic3 needs a positive depth bound (got %d)\n", *ic3Depth)
			return 1
		}
		sc3, _ := bench.IC3Instance(sc)
		r, err := bench.IC3Stream(sc3, *ic3Depth, bench.IC3Options())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(bench.RenderIC3(r))
		if r.Mismatches > 0 {
			return 1
		}
		return 0
	}

	if *serverStream != 0 {
		if *serverStream < 1 {
			fmt.Fprintf(os.Stderr, "-server needs a positive query count (got %d)\n", *serverStream)
			return 1
		}
		r, err := bench.ServerQueryStream(bench.QueryStreamInstance(sc), *serverStream, *preprocess)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(bench.RenderServerStream(r))
		if r.Mismatches > 0 {
			return 1
		}
		return 0
	}

	if *cubeJobs != 0 {
		if *cubeJobs < 1 {
			fmt.Fprintf(os.Stderr, "-cube needs a positive worker count (got %d)\n", *cubeJobs)
			return 1
		}
		workers := []int{1}
		for w := 2; w <= *cubeJobs; w *= 2 {
			workers = append(workers, w)
		}
		fmt.Println(bench.CubeConquer(sc, lim, workers).String())
		return 0
	}

	if *jobs != 0 {
		if *jobs < 2 {
			fmt.Fprintf(os.Stderr, "-portfolio needs at least 2 jobs (got %d); a 1-job portfolio is just the sequential solver\n", *jobs)
			return 1
		}
		conflicting := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "table" || f.Name == "ablation" {
				conflicting = f.Name
			}
		})
		if conflicting != "" {
			fmt.Fprintf(os.Stderr, "-portfolio and -%s are mutually exclusive\n", conflicting)
			return 1
		}
		fmt.Println(bench.PortfolioReport(sc, lim, *jobs).String())
		return 0
	}

	if *ablation != "" {
		names := []string{*ablation}
		if *ablation == "all" {
			names = bench.AblationNames()
		}
		for _, name := range names {
			rep, err := bench.Ablation(name, sc, lim)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println(rep.String())
		}
		return 0
	}

	var tables []int
	if *table == "all" {
		tables = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	} else {
		n, err := strconv.Atoi(*table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -table %q\n", *table)
			return 1
		}
		tables = []int{n}
	}
	for _, n := range tables {
		rep, err := bench.Table(n, sc, lim)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(rep.String())
	}
	return 0
}
