package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json: its name and unit. The two
// tables below are the benchmark's contract with BENCHMARK.json; the
// package test checks that they agree.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the solver sees. Every workload reports every
// one of them (see README.md for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"assume_p50_ms", "ms"},
	{"temp_p50_ms", "ms"},
	{"slo_ok_frac", "fraction"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced run measures by timing calls into each
// layer's public functions. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"dimacs.read_s", "s"},
	{"simplify.run_s", "s"},
	{"simplify.vars_eliminated", "count"},
	{"core.load_s", "s"},
	{"core.solve_s", "s"},
	{"core.props_per_s", "1/s"},
	{"core.conflicts_per_s", "1/s"},
	{"core.probe_ns", "ns"},
	{"core.ns_per_decision", "ns"},
	{"core.conflicts", "count"},
	{"core.decisions", "count"},
	{"core.propagations", "count"},
	{"core.learnt", "count"},
	{"core.deleted", "count"},
	{"core.arena_gcs", "count"},
	{"core.restarts", "count"},
	{"pool.get_us", "us"},
	{"pool.put_us", "us"},
	{"pool.hit_ratio", "ratio"},
	{"pool.dropped", "count"},
	{"groups.add_us", "us"},
	{"groups.release_us", "us"},
	{"verify.check_us", "us"},
	{"server.queue_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.shed", "count"},
	{"server.pool_hit_ratio", "ratio"},
	{"load.gen_late_ms", "ms"},
	{"latency.p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metric map for defs from the values a workload set,
// rejecting a missing, unknown or non-finite value: each is a bug in the
// benchmark, not a property of the program under test. Values of the other
// table are left out.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the metric tables", name)
		}
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geoMeanOfMedians is the geometric mean of the medians of the samples
// groups[i] for which keep(i) holds, or 0 when none is kept.
func geoMeanOfMedians(groups [][]float64, keep func(i int) bool) float64 {
	var logSum float64
	n := 0
	for i, g := range groups {
		if keep(i) && len(g) > 0 {
			logSum += math.Log(median(g))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// sumOfMedians is the sum of the medians of the samples groups[i]: the
// time of a typical pass over operations that each ran once per pass. A
// stall of a shared machine slows the operations of the pass it falls in,
// and each operation's median leaves that pass out, whereas a median over
// whole passes counts every pass that met some stall.
func sumOfMedians(groups [][]float64) float64 {
	var sum float64
	for _, g := range groups {
		sum += median(g)
	}
	return sum
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// totalAlloc is the cumulative heap allocation of the process in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// latencies collects per-operation latencies in ms, split by operation
// kind: "assume" and "temp" on the query streams, SAT and UNSAT answers on
// the hard set.
type latencies struct {
	all, assume, temp []float64
	withinLimit       int
}

// add records one answered operation; met says it was correct and within
// the workload's latency limit.
func (l *latencies) add(d time.Duration, temp, met bool) {
	x := ms(d)
	l.all = append(l.all, x)
	if temp {
		l.temp = append(l.temp, x)
	} else {
		l.assume = append(l.assume, x)
	}
	if met {
		l.withinLimit++
	}
}

// p99Window is the number of consecutive operations the stream workloads
// take each 99th percentile over.
const p99Window = 500

// set records the latency metrics. attempted counts every operation of
// the phase, so one that failed or was refused counts against the limit.
func (l *latencies) set(m map[string]float64, attempted int) {
	m["p50_ms"] = median(l.all)
	m["assume_p50_ms"] = median(l.assume)
	m["temp_p50_ms"] = median(l.temp)
	m["slo_ok_frac"] = ratio(float64(l.withinLimit), float64(attempted))
}

// p99 is the median of the 99th percentiles of consecutive windows of the
// given size: one stall of a shared machine delays a run of consecutive
// operations, and a single 99th percentile over the run would count the
// stalls the run happened to meet.
func (l *latencies) p99(window int) float64 {
	var p99s []float64
	for i := 0; i < len(l.all); i += window {
		end := i + window
		if len(l.all)-end < window {
			end = len(l.all) // a short tail joins the last window
		}
		p99s = append(p99s, quantile(l.all[i:end], 0.99))
		if end == len(l.all) {
			break
		}
	}
	return median(p99s)
}
