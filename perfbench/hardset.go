package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"berkmin"
	"berkmin/internal/bench"
	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/dimacs"
	"berkmin/internal/gen"
	"berkmin/internal/simplify"
)

// hardLimit is the latency limit behind hardset's slo_ok_frac: far above
// any instrument's solve time, so it only trips on a gross slowdown.
const hardLimit = 5 * time.Second

// hardInstance is one Table-3 instrument and its DIMACS text.
type hardInstance struct {
	inst gen.Instance
	text []byte
}

func hardInputs(sc bench.Scale) ([]hardInstance, error) {
	var set []hardInstance
	for _, in := range bench.HardInstances(sc) {
		var b bytes.Buffer
		if err := berkmin.WriteDimacs(&b, in.Formula); err != nil {
			return nil, err
		}
		set = append(set, hardInstance{inst: in, text: b.Bytes()})
	}
	return set, nil
}

func runHardset(r *run) error {
	var set []hardInstance
	setup, err := timeSetup(func() (err error) {
		set, err = hardInputs(r.cfg.scale)
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = setup
	return hardset(r, set)
}

// solveCLI answers one instance the way the berkmin command does: parse,
// preprocess, solve (the front end verifies SAT models itself).
func solveCLI(text []byte) (berkmin.Result, error) {
	f, err := berkmin.ReadDimacs(bytes.NewReader(text))
	if err != nil {
		return berkmin.Result{}, err
	}
	s := berkmin.New()
	so := berkmin.DefaultSimplifyOptions()
	s.SetSimplify(&so)
	if err := s.AddFormula(f); err != nil {
		return berkmin.Result{}, err
	}
	return s.Solve(), nil
}

// hardSpans is the traced path's time in each layer for one instance.
type hardSpans struct {
	read, simp, load, solve, verify time.Duration
	elim                            int
	sat                             bool
	stats                           core.Stats
}

// solveTraced answers one instance through the layers directly, timing
// each call: dimacs.Read, simplify.Run, core.AddFormula, core.Solve, and
// berkmin.Verify on the reconstructed model.
func solveTraced(text []byte) (berkmin.Result, hardSpans, error) {
	var sp hardSpans
	t := time.Now()
	f, err := dimacs.Read(bytes.NewReader(text))
	sp.read = time.Since(t)
	if err != nil {
		return berkmin.Result{}, sp, err
	}
	t = time.Now()
	out, _, _ := simplify.Run(f, simplify.DefaultOptions(), 0, nil)
	sp.simp = time.Since(t)
	sp.elim = out.EliminatedVars
	t = time.Now()
	cs := core.New(core.DefaultOptions())
	cs.AddFormula(out.Formula)
	sp.load = time.Since(t)
	t = time.Now()
	res := cs.Solve()
	sp.solve = time.Since(t)
	sp.stats = res.Stats
	if res.Status == berkmin.StatusSat {
		sp.sat = true
		res.Model = out.Extend(res.Model)
		t = time.Now()
		ok := berkmin.Verify(f, res.Model)
		sp.verify = time.Since(t)
		if !ok {
			return res, sp, fmt.Errorf("berkmin.Verify rejected the model")
		}
	}
	return res, sp, nil
}

// fingerprint is an instance's exact search behaviour.
type fingerprint struct{ conflicts, decisions uint64 }

// hardset solves the instruments one at a time, in a seeded order per
// pass, until the run's time is up. The untraced run times the root-API
// path; the traced run alternates untraced and traced passes, so that it
// can check that the layer-by-layer path searches exactly like the root
// path and report the tracing overhead.
func hardset(r *run, set []hardInstance) error {
	want := make([]berkmin.Status, len(set))
	for i, h := range set {
		st, err := expectedStatus(h.inst.Expected)
		if err != nil {
			return fmt.Errorf("%s: %w", h.inst.Name, err)
		}
		want[i] = st
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	// Index 0 of the paired variables is the root-API path, 1 the traced one.
	var (
		lat              latencies
		instLat          = [2][][]float64{make([][]float64, len(set)), make([][]float64, len(set))} // ms per solve
		pathPasses       [2]int
		passAlloc        []float64
		spans            []hardSpans // per traced pass, summed over the set
		verifies         []float64   // µs per verified model
		fp               = [2][]fingerprint{make([]fingerprint, len(set)), make([]fingerprint, len(set))}
		start            = time.Now()
		passes, instDone int
	)
	for passes == 0 || time.Since(start) < r.cfg.seconds || (r.cfg.trace && passes < 2) {
		traced := r.cfg.trace && passes%2 == 1
		path := 0
		if traced {
			path = 1
		}
		var sum hardSpans
		alloc0 := totalAlloc()
		for _, i := range rng.Perm(len(set)) {
			h := set[i]
			var res berkmin.Result
			var sp hardSpans
			var err error
			t := time.Now()
			if traced {
				res, sp, err = solveTraced(h.text)
			} else {
				res, err = solveCLI(h.text)
			}
			d := time.Since(t)
			instDone++
			if err == nil {
				err = checkAnswer(h.inst.Name, h.inst.Formula, nil, res.Status, want[i], res.Model)
			}
			// Every pass of a path must search exactly like its first.
			got := fingerprint{res.Stats.Conflicts, res.Stats.Decisions}
			if pathPasses[path] == 0 {
				fp[path][i] = got
			} else if err == nil && got != fp[path][i] {
				err = fmt.Errorf("%s: conflicts/decisions %d/%d, first pass %d/%d",
					h.inst.Name, got.conflicts, got.decisions, fp[path][i].conflicts, fp[path][i].decisions)
			}
			r.tally.op(err)
			if !traced {
				lat.add(d, want[i] == berkmin.StatusUnsat, err == nil && d <= hardLimit)
			}
			instLat[path][i] = append(instLat[path][i], ms(d))
			if traced {
				sum.read += sp.read
				sum.simp += sp.simp
				sum.load += sp.load
				sum.solve += sp.solve
				sum.verify += sp.verify
				sum.elim += sp.elim
				addStats(&sum.stats, sp.stats)
				if sp.sat {
					verifies = append(verifies, us(sp.verify))
				}
			}
		}
		if traced {
			spans = append(spans, sum)
		} else {
			passAlloc = append(passAlloc, float64(totalAlloc()-alloc0)/1e6)
		}
		pathPasses[path]++
		passes++
	}
	r.metrics["peak_rss_mb"] = peakRSSMB()
	for i, h := range set {
		r.note("fingerprint %s conflicts=%d decisions=%d", h.inst.Name, fp[0][i].conflicts, fp[0][i].decisions)
	}
	r.note("passes=%d instances=%d p99_ms=%.3f", passes, instDone, lat.p99(len(set)))

	// A pass's time is the sum of each instrument's median solve time:
	// every pass solves the same instruments, which search the same way.
	untraced, traced := sumOfMedians(instLat[0])/1e3, sumOfMedians(instLat[1])/1e3
	if !r.cfg.trace {
		m := r.metrics
		m["wall_s"] = untraced
		m["qps"] = float64(len(set)) / untraced
		m["alloc_mb"] = median(passAlloc)
		m["slo_ok_frac"] = ratio(float64(lat.withinLimit), float64(instDone))
		// The instruments differ in cost by orders of magnitude, so a
		// median over all their solves would sit on whichever instrument
		// the sample order puts in the middle. Each latency is instead the
		// geometric mean of the instruments' own medians.
		m["p50_ms"] = geoMeanOfMedians(instLat[0], func(int) bool { return true })
		m["assume_p50_ms"] = geoMeanOfMedians(instLat[0], func(i int) bool { return want[i] == berkmin.StatusSat })
		m["temp_p50_ms"] = geoMeanOfMedians(instLat[0], func(i int) bool { return want[i] == berkmin.StatusUnsat })
		return nil
	}

	// Decomposition check: the traced path must search exactly like the
	// root-API path it decomposes.
	for i, h := range set {
		var err error
		if root, traced := fp[0][i], fp[1][i]; root != traced {
			err = fmt.Errorf("%s: traced path conflicts/decisions %d/%d, root path %d/%d",
				h.inst.Name, traced.conflicts, traced.decisions, root.conflicts, root.decisions)
		}
		r.tally.op(err)
	}
	r.note("trace overhead: wall_s %+.4fs (%.4f untraced, %.4f traced), qps %+.3f",
		traced-untraced, untraced, traced, float64(len(set))/traced-float64(len(set))/untraced)
	r.metrics["trace.overhead_frac"] = ratio(traced-untraced, untraced)
	r.metrics["latency.p99_ms"] = lat.p99(len(set))

	sp := spans[0]
	pick := func(f func(hardSpans) time.Duration) float64 {
		var xs []float64
		for _, s := range spans {
			xs = append(xs, f(s).Seconds())
		}
		return median(xs)
	}
	m := r.metrics
	m["dimacs.read_s"] = pick(func(s hardSpans) time.Duration { return s.read })
	m["simplify.run_s"] = pick(func(s hardSpans) time.Duration { return s.simp })
	m["core.load_s"] = pick(func(s hardSpans) time.Duration { return s.load })
	solve := pick(func(s hardSpans) time.Duration { return s.solve })
	m["core.solve_s"] = solve
	m["simplify.vars_eliminated"] = float64(sp.elim)
	setCoreStats(m, sp.stats, solve)
	m["verify.check_us"] = median(verifies)

	var simplified []*cnf.Formula
	for _, h := range set {
		out, _, _ := simplify.Run(h.inst.Formula, simplify.DefaultOptions(), 0, nil)
		simplified = append(simplified, out.Formula)
	}
	m["core.probe_ns"] = probeNS(simplified...)
	zeroLayers(m, "pool.", "groups.", "server.", "load.")
	return nil
}
