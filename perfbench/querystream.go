package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"berkmin"
	"berkmin/internal/bench"
	"berkmin/internal/cnf"
	"berkmin/internal/core"
	"berkmin/internal/dimacs"
	"berkmin/internal/gen"
	"berkmin/internal/simplify"
)

// streamLimit is the per-query latency limit behind querystream's
// slo_ok_frac, about ten times a query's usual cost.
const streamLimit = 50 * time.Millisecond

// streamQueries is the number of distinct queries a stream draws from the
// seed. Each one is cross-checked against a fresh solve, so this bounds
// the checking cost; the stream cycles through them in rounds.
func streamQueries(sc bench.Scale) int {
	if sc == bench.Small {
		return 64
	}
	return 1024
}

// streamInputs is what the query streams run on: the formula's DIMACS
// text, the seeded queries, and the answers a fresh solver gives them.
type streamInputs struct {
	inst    gen.Instance
	text    []byte
	queries []query
	want    []berkmin.Status
}

func newStreamInputs(r *run) (*streamInputs, error) {
	in := &streamInputs{inst: bench.QueryStreamInstance(r.cfg.scale)}
	var b bytes.Buffer
	if err := berkmin.WriteDimacs(&b, in.inst.Formula); err != nil {
		return nil, err
	}
	in.text = b.Bytes()
	qs, err := genQueries(r.cfg.seed, in.inst.Formula.NumVars, streamQueries(r.cfg.scale))
	if err != nil {
		return nil, err
	}
	in.queries = qs
	return in, nil
}

// answer is one reply of a stream. Its model was checked when it arrived;
// its verdict waits for the cross-check, which runs after the timed part
// so that the reference solvers count toward neither time nor memory.
type answer struct {
	q      int
	status berkmin.Status
	lat    time.Duration
	timed  bool  // the reply counts toward the latency metrics
	err    error // a failed request, or a model that falsifies its query
}

// settle cross-checks every answer against a fresh solver's, counts the
// operations, and returns the latencies of the timed ones.
func (in *streamInputs) settle(r *run, answers []answer, limit time.Duration) (latencies, error) {
	var lat latencies
	if in.want == nil {
		want, err := referenceVerdicts(in.inst.Formula, in.queries)
		if err != nil {
			return lat, err
		}
		in.want = want
	}
	for _, a := range answers {
		err := a.err
		if err == nil {
			err = checkVerdict(fmt.Sprintf("query %d", a.q), a.status, in.want[a.q])
		}
		r.tally.op(err)
		if a.timed {
			lat.add(a.lat, in.queries[a.q].temp != nil, err == nil && a.lat <= limit)
		}
	}
	return lat, nil
}

// newPool parses the formula text, preprocesses it once into a Snapshot
// and returns a pool over it: what a client does before its first query.
func newPool(text []byte) (*berkmin.Pool, error) {
	f, err := berkmin.ReadDimacs(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	front := berkmin.New()
	so := berkmin.DefaultSimplifyOptions()
	front.SetSimplify(&so)
	if err := front.AddFormula(f); err != nil {
		return nil, err
	}
	return front.Snapshot().NewPool(), nil
}

func runQueryStream(r *run) error {
	var in *streamInputs
	var pool *berkmin.Pool
	setup, err := timeSetup(func() (err error) {
		if in, err = newStreamInputs(r); err != nil {
			return err
		}
		pool, err = newPool(in.text)
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = setup
	runtime.GC()
	return queryStream(r, in, pool)
}

// querySpans is the traced run's time in each layer for one query.
type querySpans struct {
	get, add, solve, verify, release, put time.Duration
}

// queryStream sends the queries one at a time, in rounds over the query
// set, until the run's time is up. Latency runs from Get to Put. The
// traced run alternates untraced and traced rounds.
func queryStream(r *run, in *streamInputs, pool *berkmin.Pool) error {
	f := in.inst.Formula
	var (
		answers    []answer
		queryWall  [2][][]float64 // untraced, traced: per query, seconds per round
		roundAlloc []float64
		spans      []querySpans
		stats      core.Stats    // over the first round (the first traced one, when tracing)
		solveTime  time.Duration // core time of that traced round
		poolTraced berkmin.PoolStats
		fps        = make([]fingerprint, len(in.queries)) // per query, first round
		start      = time.Now()
		rounds     int
	)
	statsRound := 0
	if r.cfg.trace {
		statsRound = 1
	}
	for path := range queryWall {
		queryWall[path] = make([][]float64, len(in.queries))
	}
	for rounds == 0 || time.Since(start) < r.cfg.seconds || (r.cfg.trace && rounds < 2) {
		traced := r.cfg.trace && rounds%2 == 1
		path := 0
		if traced {
			path = 1
		}
		alloc0 := totalAlloc()
		pool0 := pool.Stats()
		for i, q := range in.queries {
			var sp querySpans
			var res berkmin.Result
			var err error
			t := time.Now()
			if traced {
				res, sp, err = solveQueryTraced(pool, q, f)
			} else {
				w := pool.Get()
				res, err = solveOn(w, q)
				pool.Put(w)
			}
			d := time.Since(t)
			queryWall[path][i] = append(queryWall[path][i], d.Seconds())
			if err == nil && res.Status == berkmin.StatusSat {
				err = checkModel(fmt.Sprintf("query %d", i), f, q.clauses(), res.Model)
			}
			// Every round starts on an empty pool and sends the same
			// queries in the same order, so it must search exactly like
			// the first.
			got := fingerprint{res.Stats.Conflicts, res.Stats.Decisions}
			if rounds == 0 {
				fps[i] = got
			} else if err == nil && got != fps[i] {
				err = fmt.Errorf("query %d: conflicts/decisions %d/%d, first round %d/%d",
					i, got.conflicts, got.decisions, fps[i].conflicts, fps[i].decisions)
			}
			answers = append(answers, answer{q: i, status: res.Status, lat: d, timed: !traced, err: err})
			if rounds == statsRound {
				addStats(&stats, res.Stats)
				solveTime += sp.solve
			}
			if traced {
				spans = append(spans, sp)
			}
		}
		if traced {
			p := pool.Stats()
			poolTraced.Hits += p.Hits - pool0.Hits
			poolTraced.Misses += p.Misses - pool0.Misses
			poolTraced.Dropped += p.Dropped - pool0.Dropped
		} else {
			roundAlloc = append(roundAlloc, float64(totalAlloc()-alloc0)/1e6)
		}
		rounds++
	}
	r.metrics["peak_rss_mb"] = peakRSSMB()
	lat, err := in.settle(r, answers, streamLimit)
	if err != nil {
		return err
	}
	r.note("rounds=%d queries_per_round=%d conflicts=%d decisions=%d p99_ms=%.3f",
		rounds, len(in.queries), stats.Conflicts, stats.Decisions, lat.p99(p99Window))

	// A round's time is the sum of each query's median over the rounds:
	// every round sends the same queries, which search the same way.
	untraced, traced := sumOfMedians(queryWall[0]), sumOfMedians(queryWall[1])
	if !r.cfg.trace {
		r.metrics["wall_s"] = untraced
		r.metrics["qps"] = float64(len(in.queries)) / untraced
		r.metrics["alloc_mb"] = median(roundAlloc)
		lat.set(r.metrics, len(answers))
		return nil
	}

	n := float64(len(in.queries))
	r.note("trace overhead: wall_s %+.4fs (%.4f untraced, %.4f traced), qps %+.2f",
		traced-untraced, untraced, traced, n/traced-n/untraced)
	m := r.metrics
	m["trace.overhead_frac"] = ratio(traced-untraced, untraced)
	m["latency.p99_ms"] = lat.p99(p99Window)

	var get, add, verify, release, put []float64
	for i, sp := range spans {
		get = append(get, us(sp.get))
		put = append(put, us(sp.put))
		if in.queries[i%len(in.queries)].temp != nil {
			add = append(add, us(sp.add))
			release = append(release, us(sp.release))
		}
		if sp.verify > 0 {
			verify = append(verify, us(sp.verify))
		}
	}
	m["pool.get_us"] = mean(get)
	m["pool.put_us"] = mean(put)
	m["pool.hit_ratio"] = ratio(float64(poolTraced.Hits), float64(poolTraced.Hits+poolTraced.Misses))
	m["pool.dropped"] = float64(poolTraced.Dropped) / float64(len(queryWall[1][0]))
	m["groups.add_us"] = mean(add)
	m["groups.release_us"] = mean(release)
	m["verify.check_us"] = mean(verify)
	setCoreStats(m, stats, solveTime.Seconds())
	m["core.solve_s"] = solveTime.Seconds()
	zeroLayers(m, "server.", "load.")
	return layersOutside(m, in.text)
}

// solveQueryTraced is solveOn with every call into the pool, the group
// API, the solver and Verify timed on its own.
func solveQueryTraced(pool *berkmin.Pool, q query, f *cnf.Formula) (berkmin.Result, querySpans, error) {
	var sp querySpans
	t := time.Now()
	w := pool.Get()
	sp.get = time.Since(t)
	var g berkmin.Group
	if q.temp != nil {
		t = time.Now()
		g = w.NewClauseGroup()
		err := w.AddClauseGroup(g, q.temp...)
		sp.add = time.Since(t)
		if err != nil {
			return berkmin.Result{}, sp, err
		}
	}
	t = time.Now()
	res := w.SolveAssuming(q.assume...)
	sp.solve = time.Since(t)
	if res.Status == berkmin.StatusSat {
		t = time.Now()
		ok := berkmin.Verify(f, res.Model)
		sp.verify = time.Since(t)
		if !ok {
			return res, sp, fmt.Errorf("berkmin.Verify rejected the model")
		}
	}
	if q.temp != nil {
		t = time.Now()
		w.ReleaseGroup(g)
		sp.release = time.Since(t)
	}
	t = time.Now()
	pool.Put(w)
	sp.put = time.Since(t)
	return res, sp, nil
}

// layersOutside times, from outside, the parse and preprocessing that
// building a Snapshot (or uploading to the daemon) pays once, and the
// core's propagation speed on the preprocessed formula.
func layersOutside(m map[string]float64, text []byte) error {
	var read, simp []float64
	var out *simplify.Outcome
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		f, err := dimacs.Read(bytes.NewReader(text))
		read = append(read, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		t = time.Now()
		out, _, _ = simplify.Run(f, simplify.DefaultOptions(), 0, nil)
		simp = append(simp, time.Since(t).Seconds())
	}
	m["dimacs.read_s"] = median(read)
	m["simplify.run_s"] = median(simp)
	m["simplify.vars_eliminated"] = float64(out.EliminatedVars)
	t := time.Now()
	cs := core.New(core.DefaultOptions())
	cs.AddFormula(out.Formula)
	m["core.load_s"] = time.Since(t).Seconds()
	m["core.probe_ns"] = probeNS(out.Formula)
	return nil
}
