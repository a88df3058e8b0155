// Command perfbench is the repository benchmark: it drives the berkmin
// layers (DIMACS reader, preprocessor, CDCL core, the root front end's
// Snapshot/Pool/clause groups/Verify, and the satserved daemon) through
// their public entry points on three workloads, checks every answer, and
// prints one JSON result line.
//
//	perfbench --workload hardset|querystream|served --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"berkmin/internal/bench"
)

// Each workload sets up at least setupReps times and for at least
// setupMinTime, so that a set-up of a few milliseconds is also timed over
// many repetitions once the process has warmed up; setup_s is the median.
const (
	setupReps    = 15
	setupMinTime = time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    bench.Scale
}

// run is one benchmark invocation: its settings, the answers checked so
// far and the metric values measured.
type run struct {
	cfg     config
	out     io.Writer // report lines; the result line comes last
	tally   tally
	metrics map[string]float64
}

// note prints one report line. Report lines start with '#', so the result
// line is the only JSON object on standard output.
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// tally counts operations and the ones that failed: a wrong verdict, a
// model that falsifies its formula, an HTTP error or a shed request.
type tally struct {
	attempted, failed int
	errs              []string
}

const maxReportedErrors = 10

func (t *tally) op(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < maxReportedErrors {
		t.errs = append(t.errs, err.Error())
	}
}

var workloads = map[string]func(*run) error{
	"hardset":     runHardset,
	"querystream": runQueryStream,
	"served":      runServed,
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain runs the benchmark and returns the exit code: 0 when every
// answer checked out, 1 when any operation failed, 2 when the benchmark
// could not run at all (then no result line is printed).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hardset, querystream or served")
	seed := fs.Int64("seed", 1, "seed for the generated queries and the solve order")
	seconds := fs.Float64("seconds", 10, "length of the measured part of the run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[*workload] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload hardset|querystream|served, --seconds > 0 and --trace 0|1")
		return 2
	}
	return execute(config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		scale:    bench.Medium,
	}, stdout, stderr)
}

// execute runs one workload and prints its report and result line.
func execute(cfg config, stdout, stderr io.Writer) int {
	r := &run{cfg: cfg, out: stdout, metrics: map[string]float64{}}
	env, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"served_rate_qps": servedRate, "served_limit_ms": ms(servedLimit),
		"stream_limit_ms": ms(streamLimit), "hardset_limit_ms": ms(hardLimit),
	})
	r.note("env %s", env)
	if err := workloads[cfg.workload](r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	return r.finish(stdout, stderr)
}

// finish prints the result line and returns the exit code: 1 when any
// operation failed.
func (r *run) finish(stdout, stderr io.Writer) int {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, r.metrics)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.cfg.workload, err)
		return 2
	}
	for _, e := range r.tally.errs {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", e)
	}
	res := result{
		Correct:   r.tally.failed == 0 && r.tally.attempted > 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// timeSetup repeats setup as the constants above say and returns the
// median duration in seconds; the state of the last repetition is what the
// run uses. teardown, when not nil, undoes a repetition before the next one
// and is not timed.
func timeSetup(setup func() error, teardown func()) (float64, error) {
	var times []float64
	for begin := time.Now(); len(times) < setupReps || time.Since(begin) < setupMinTime; {
		if teardown != nil && len(times) > 0 {
			teardown()
		}
		runtime.GC() // so that no repetition pays for the garbage of the one before
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}
