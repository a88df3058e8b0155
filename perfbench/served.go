package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"berkmin"
	"berkmin/internal/server"
)

// The served workload's fixed load: an open loop at servedRate, well below
// the capacity of a 2-CPU box (about 600 queries/s), and the latency limit
// that slo_ok_frac counts against.
const (
	servedRate  = 250.0
	servedLimit = 50 * time.Millisecond
)

// servedChunk is how many queries of a closed-loop round are timed
// together: a round's time is the sum of each chunk's median over the
// rounds, so a stall costs only the chunk it hit in one round.
const servedChunk = 128

// daemon is a satserved instance on a loopback listener holding one
// uploaded formula, with the client that talks to it.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan struct{} // closed when the HTTP server has stopped
	client *http.Client
}

// startDaemon boots the daemon and uploads the formula text. The client
// opens at most conns connections.
func startDaemon(text []byte, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	req, err := http.NewRequest(http.MethodPut, d.base+"/formulas/f", bytes.NewReader(text))
	if err != nil {
		d.stop()
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("upload: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("upload: HTTP %d", resp.StatusCode)
	}
	return d, nil
}

// stop shuts the daemon down and waits for its goroutines.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.hs.Close()
	<-d.served
	d.srv.Close()
}

type reply struct {
	Status    string  `json:"status"`
	Error     string  `json:"error"`
	Model     []int   `json:"model"`
	Conflicts uint64  `json:"conflicts"`
	Decisions uint64  `json:"decisions"`
	RuntimeMS float64 `json:"runtime_ms"`
	QueueMS   float64 `json:"queue_ms"`
	Requeued  bool    `json:"requeued"`
}

// solve sends one query to the uploaded formula.
func (d *daemon) solve(q query) (reply, error) {
	var rep reply
	resp, err := d.client.Post(d.base+"/formulas/f/solve", "application/json", bytes.NewReader(q.body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&rep)
	_, _ = io.Copy(io.Discard, resp.Body) // so the connection is reused
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("HTTP %d: %s", resp.StatusCode, rep.Error)
	}
	if err != nil {
		return rep, fmt.Errorf("reply: %w", err)
	}
	return rep, nil
}

// scrape reads the daemon's /metrics counters (label-free series only).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if x, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = x
		}
	}
	return out, sc.Err()
}

func statusOf(s string) berkmin.Status {
	switch s {
	case berkmin.StatusSat.String():
		return berkmin.StatusSat
	case berkmin.StatusUnsat.String():
		return berkmin.StatusUnsat
	}
	return berkmin.StatusUnknown
}

// modelOf converts a reply's DIMACS model to the form cnf evaluates.
func modelOf(lits []int) []bool {
	m := make([]bool, len(lits)+1)
	for _, l := range lits {
		if l > 0 && l < len(m) {
			m[l] = true
		}
	}
	return m
}

// exchange is one request and its reply, timed by the client.
type exchange struct {
	q               int
	due, sent, done time.Time
	rep             reply
	model           []bool
	err             error
}

// send answers ex's query and converts the reply's model, dropping the
// wire form so that a phase's replies do not hold the harness's memory.
func (d *daemon) send(e *exchange, qs []query) {
	e.sent = time.Now()
	e.rep, e.err = d.solve(qs[e.q])
	e.done = time.Now()
	e.model, e.rep.Model = modelOf(e.rep.Model), nil
}

func runServed(r *run) error {
	conns := runtime.NumCPU()
	var in *streamInputs
	var d *daemon
	setup, err := timeSetup(func() (err error) {
		if in, err = newStreamInputs(r); err != nil {
			return err
		}
		d, err = startDaemon(in.text, conns)
		return err
	}, func() { d.stop(); d = nil })
	if err != nil {
		if d != nil {
			d.stop()
		}
		return err
	}
	defer d.stop()
	r.metrics["setup_s"] = setup
	runtime.GC()
	return served(r, in, d, conns)
}

// fingerprintRounds gives the traced run its exact core counts. It sends
// the query set twice, one request at a time over a single connection, to
// the freshly booted daemon: the daemon's pool then serves the requests in
// a fixed order, as querystream's pool does, and the second round must
// search exactly like the first (a mismatch is the second exchange's
// error). It returns both rounds and the /metrics deltas over the first.
// A request the daemon's scheduler requeued ran in two time slices, so its
// search depends on timing and it is left out of the comparison.
func fingerprintRounds(r *run, d *daemon, qs []query) (rounds []exchange, counts map[string]float64, err error) {
	before, err := d.scrape()
	if err != nil {
		return nil, nil, err
	}
	first := closedRound(d, qs, 1)
	after, err := d.scrape()
	if err != nil {
		return nil, nil, err
	}
	second := closedRound(d, qs, 1)
	requeued := 0
	for i := range second {
		a, b := first[i].rep, &second[i]
		switch {
		case a.Requeued || b.rep.Requeued:
			requeued++
		case first[i].err == nil && b.err == nil && (a.Conflicts != b.rep.Conflicts || a.Decisions != b.rep.Decisions):
			b.err = fmt.Errorf("query %d: conflicts/decisions %d/%d in the second round, %d/%d in the first",
				i, b.rep.Conflicts, b.rep.Decisions, a.Conflicts, a.Decisions)
		}
	}
	r.note("fingerprint rounds: %d queries twice on one connection, %d requeued", len(qs), requeued)
	counts = map[string]float64{"runtime_s": 0}
	for name, v := range after {
		counts[name] = v - before[name]
	}
	for _, e := range first {
		counts["runtime_s"] += e.rep.RuntimeMS / 1e3
	}
	return append(first, second...), counts, nil
}

// served drives the daemon in two phases of half the run each: an open
// loop at servedRate, which gives the latency metrics, then a closed loop
// of conns clients in rounds over the query set, which gives capacity.
func served(r *run, in *streamInputs, d *daemon, conns int) error {
	f := in.inst.Formula
	var (
		answers  []answer
		verifies []float64
		ex       []exchange // every exchange, for the traced run's layer split
	)
	// record checks an exchange's model and keeps its verdict for settle.
	record := func(e exchange, timed bool) {
		err := e.err
		status := statusOf(e.rep.Status)
		if err == nil && status == berkmin.StatusSat {
			if r.cfg.trace {
				t := time.Now()
				berkmin.Verify(f, e.model)
				verifies = append(verifies, us(time.Since(t)))
			}
			err = checkModel(fmt.Sprintf("query %d", e.q), f, in.queries[e.q].clauses(), e.model)
		}
		answers = append(answers, answer{q: e.q, status: status, lat: e.done.Sub(e.due), timed: timed, err: err})
		if r.cfg.trace {
			e.model = nil
			ex = append(ex, e)
		}
	}
	var fp map[string]float64
	if r.cfg.trace {
		rounds, counts, err := fingerprintRounds(r, d, in.queries)
		if err != nil {
			return err
		}
		for _, e := range rounds {
			record(e, false)
		}
		ex = nil // the layer split covers the open and closed loops only
		fp = counts
	}
	before, err := d.scrape()
	if err != nil {
		return err
	}

	// Open loop. Latency runs from each request's due time, so a stall
	// also charges the requests it delays.
	open, late := openLoop(d, in.queries, conns, r.cfg.seconds/2)
	for _, e := range open {
		record(e, true)
	}
	r.note("open loop: %d requests at %.0f/s, generator late p50 %.3fms p99 %.3fms max %.3fms",
		len(open), servedRate, median(late), quantile(late, 0.99), quantile(late, 1))

	// Closed loop, in rounds over the query set, chunk by chunk.
	var (
		chunkWall     = make([][]float64, (len(in.queries)+servedChunk-1)/servedChunk)
		allocs        []float64
		start, rounds = time.Now(), 0
	)
	for rounds == 0 || time.Since(start) < r.cfg.seconds/2 {
		alloc0 := totalAlloc()
		parts := make([][]exchange, len(chunkWall))
		for c := range chunkWall {
			lo := c * servedChunk
			t := time.Now()
			parts[c] = closedRound(d, in.queries[lo:min(lo+servedChunk, len(in.queries))], conns)
			chunkWall[c] = append(chunkWall[c], time.Since(t).Seconds())
		}
		allocs = append(allocs, float64(totalAlloc()-alloc0)/1e6)
		for c, part := range parts {
			for _, e := range part {
				e.q += c * servedChunk
				record(e, false)
			}
		}
		rounds++
	}
	after, err := d.scrape()
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = peakRSSMB()
	r.note("closed loop: %d rounds of %d queries on %d connections", rounds, len(in.queries), conns)
	lat, err := in.settle(r, answers, servedLimit)
	if err != nil {
		return err
	}
	m := r.metrics
	wall := sumOfMedians(chunkWall)
	m["wall_s"] = wall
	m["qps"] = float64(len(in.queries)) / wall
	m["alloc_mb"] = median(allocs)
	lat.set(m, len(open))
	r.note("open loop p99_ms=%.3f", lat.p99(p99Window))
	if !r.cfg.trace {
		return nil
	}

	// The traced run: split each exchange into queue wait and solve time
	// (from the reply) and the rest of the round trip (HTTP, JSON, hand-off).
	var queue, solve, overhead []float64
	for _, e := range ex {
		if e.err != nil {
			continue
		}
		rt := ms(e.done.Sub(e.sent))
		queue = append(queue, e.rep.QueueMS)
		solve = append(solve, e.rep.RuntimeMS)
		overhead = append(overhead, rt-e.rep.QueueMS-e.rep.RuntimeMS)
	}
	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	m["server.queue_ms"] = mean(queue)
	m["server.solve_ms"] = mean(solve)
	m["server.overhead_ms"] = mean(overhead)
	m["server.shed"] = delta(before, after, "satserved_shed_total")
	hits := delta(before, after, "satserved_pool_hits_total")
	misses := delta(before, after, "satserved_pool_misses_total")
	m["server.pool_hit_ratio"] = ratio(hits, hits+misses)
	m["pool.hit_ratio"] = m["server.pool_hit_ratio"]
	m["load.gen_late_ms"] = quantile(late, 0.99)
	m["latency.p99_ms"] = lat.p99(p99Window)
	m["verify.check_us"] = mean(verifies)
	m["trace.overhead_frac"] = 0 // the traced run sends the same requests; it only reads /metrics between phases

	// Core counters of the first fingerprint round, one answer per query.
	// The wire carries no deletion or arena counters, so those stay 0.
	m["core.conflicts"] = fp["satserved_conflicts_total"]
	m["core.decisions"] = fp["satserved_decisions_total"]
	m["core.propagations"] = fp["satserved_propagations_total"]
	m["core.learnt"] = fp["satserved_learnt_clauses_total"]
	m["core.restarts"] = fp["satserved_restarts_total"]
	m["core.deleted"], m["core.arena_gcs"] = 0, 0
	m["pool.dropped"] = fp["satserved_pool_dropped_total"]
	solveS := fp["runtime_s"]
	m["core.solve_s"] = solveS
	m["core.props_per_s"] = ratio(m["core.propagations"], solveS)
	m["core.conflicts_per_s"] = ratio(m["core.conflicts"], solveS)
	m["core.ns_per_decision"] = ratio(solveS*1e9, m["core.decisions"])
	zeroLayers(m, "pool.", "groups.")
	return layersOutside(m, in.text)
}

// openLoop sends the queries, cycling through the set, at servedRate for
// the given time. A generator releases each request at its due time and
// conns senders take them in order, so requests that find every
// connection busy wait on the client side, as they would behind a real
// load balancer. It returns every exchange and how late, in ms, the
// generator released each request.
func openLoop(d *daemon, qs []query, conns int, length time.Duration) ([]exchange, []float64) {
	n := int(servedRate * length.Seconds())
	if n < 1 {
		n = 1
	}
	ex := make([]exchange, n)
	late := make([]float64, n)
	due := make(chan int, n) // one slot per request: the generator never waits for a sender
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				d.send(&ex[i], qs)
			}
		}()
	}
	start := time.Now()
	for i := range ex {
		at := start.Add(time.Duration(float64(i) / servedRate * float64(time.Second)))
		time.Sleep(time.Until(at))
		ex[i].q, ex[i].due = i%len(qs), at
		late[i] = ms(time.Since(at))
		due <- i
	}
	close(due)
	wg.Wait()
	return ex, late
}

// closedRound answers every query of the set once with conns clients, each
// sending its next query as soon as its previous reply arrives.
func closedRound(d *daemon, qs []query, conns int) []exchange {
	ex := make([]exchange, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				ex[i].q = i
				d.send(&ex[i], qs)
				ex[i].due = ex[i].sent
			}
		}()
	}
	wg.Wait()
	return ex
}
