package main

import (
	"strings"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/core"
)

// addStats accumulates the counters the benchmark reports as the core's
// behaviour fingerprint.
func addStats(dst *core.Stats, s core.Stats) {
	dst.Conflicts += s.Conflicts
	dst.Decisions += s.Decisions
	dst.Propagations += s.Propagations
	dst.LearntTotal += s.LearntTotal
	dst.DeletedTotal += s.DeletedTotal
	dst.ArenaGCs += s.ArenaGCs
	dst.Restarts += s.Restarts
}

// setCoreStats records the core counters of one unit of work (a pass over
// the hard set, or over the query set) that spent solveS seconds in the
// core's solve calls.
func setCoreStats(m map[string]float64, st core.Stats, solveS float64) {
	m["core.conflicts"] = float64(st.Conflicts)
	m["core.decisions"] = float64(st.Decisions)
	m["core.propagations"] = float64(st.Propagations)
	m["core.learnt"] = float64(st.LearntTotal)
	m["core.deleted"] = float64(st.DeletedTotal)
	m["core.arena_gcs"] = float64(st.ArenaGCs)
	m["core.restarts"] = float64(st.Restarts)
	m["core.props_per_s"] = ratio(float64(st.Propagations), solveS)
	m["core.conflicts_per_s"] = ratio(float64(st.Conflicts), solveS)
	m["core.ns_per_decision"] = ratio(solveS*1e9, float64(st.Decisions))
}

// probeReps is how many probe sweeps core.probe_ns takes the median of.
const probeReps = 3

// probeNS times unit propagation alone, from outside the core: on a solver
// loaded with f, it assumes every literal of every unassigned variable at
// level 0 (core.ProbeAssume) and retracts it (core.ProbeRetract). The
// result is nanoseconds per implied literal.
func probeNS(formulas ...*cnf.Formula) float64 {
	var reps []float64
	for rep := 0; rep < probeReps; rep++ {
		var elapsed time.Duration
		implied := 0
		for _, f := range formulas {
			s := core.New(core.DefaultOptions())
			s.AddFormula(f)
			if s.Dead() {
				continue
			}
			start := time.Now()
			for v := cnf.Var(1); int(v) <= s.NumVars(); v++ {
				if s.Assigned(v) {
					continue
				}
				for _, l := range [2]cnf.Lit{cnf.PosLit(v), cnf.NegLit(v)} {
					n, _ := s.ProbeAssume(l)
					s.ProbeRetract(0)
					implied += n
				}
			}
			elapsed += time.Since(start)
		}
		reps = append(reps, ratio(float64(elapsed), float64(implied)))
	}
	return median(reps)
}

// zeroLayers reports 0 for every per-layer metric under the given prefixes
// that the workload did not measure: it does not exercise those layers.
func zeroLayers(m map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, ok := m[d.name]; !ok && strings.HasPrefix(d.name, p) {
				m[d.name] = 0
			}
		}
	}
}
