// Package portfolio runs a portfolio of diversified core.Solver instances
// on the same formula concurrently: the first definitive answer wins and
// cancels the rest via core.Solver.Interrupt, and the solvers periodically
// exchange short learnt clauses through the export/import hooks of package
// core. Portfolio solving with clause sharing is the standard route to
// robust parallel speedups for CDCL solvers (ManySAT-style); BerkMin itself
// is sequential, so everything here is an extension beyond the paper.
package portfolio

import (
	"context"
	"fmt"
	"sync"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/conc"
	"berkmin/internal/core"
	"berkmin/internal/simplify"
)

// DefaultShareMaxLen is the default length cap for exchanged learnt
// clauses: short clauses prune the most and cost the least to integrate.
const DefaultShareMaxLen = 8

// DefaultShareMaxGlue is the default glue cap: a long clause whose
// literals span few decision levels propagates like a short one, so it is
// worth exchanging even past the length cap.
const DefaultShareMaxGlue = 4

// Config names one solver configuration of the portfolio.
type Config struct {
	Name string
	Opt  core.Options
}

// Options configures a portfolio solve.
type Options struct {
	// Jobs is the number of concurrent solvers. <= 0 means GOMAXPROCS.
	Jobs int
	// ShareMaxLen caps the length of exchanged learnt clauses: 0 means
	// DefaultShareMaxLen, negative disables sharing entirely.
	ShareMaxLen int
	// ShareMaxGlue additionally exchanges clauses of glue (LBD) at most
	// this, regardless of length: 0 means DefaultShareMaxGlue, negative
	// disables the glue route (length-only sharing).
	ShareMaxGlue int
	// Per-solver resource budgets, as in core.Options. When non-zero they
	// override the corresponding budget of every member configuration;
	// when zero, each member keeps the budget set in its own Opt.
	MaxConflicts uint64
	MaxTime      time.Duration
	// BaseSeed diversifies the per-job PRNG seeds (0 means 1).
	BaseSeed uint64
	// Configs overrides the default diversification; when set, its length
	// determines the number of jobs and Jobs is ignored.
	Configs []Config
	// Simplify, when non-nil, preprocesses the formula once up front
	// (package simplify); every member then races on the simplified form
	// and the winning model is mapped back to the original variables.
	Simplify *simplify.Options
}

// JobRun is the outcome of one portfolio member.
type JobRun struct {
	Config string
	Result core.Result
}

// Result is the portfolio outcome: the winning job's core.Result plus
// per-job provenance. When no job answers within its budget, Status is
// StatusUnknown and Stop carries a representative stop reason (a resource
// limit if any job hit one).
type Result struct {
	core.Result
	// Winner is the Config name of the job that produced the answer
	// (empty when every job returned StatusUnknown).
	Winner string
	// Jobs holds every member's result, indexed as in the configuration
	// list; losers that were cancelled report StopInterrupted.
	Jobs []JobRun
}

// SharedClauses sums the clauses each member exported to the others.
func (r *Result) SharedClauses() uint64 {
	var n uint64
	for _, j := range r.Jobs {
		n += j.Result.Stats.ExportedClauses
	}
	return n
}

// Variants returns n named, deliberately different solver configurations:
// the paper's presets (BerkMin, zChaff-like, limmat-like), the modern
// branching families (EVSIDS via ModernOptions, LRB) placed early so even
// small portfolios carry one member of each decider family, restart-policy
// and polarity variants, and — beyond the base cycle — seed-shifted copies
// of the same cycle, so any n is valid.
func Variants(n int, baseSeed uint64) []Config {
	if baseSeed == 0 {
		baseSeed = 1
	}
	base := []Config{
		{"berkmin", core.DefaultOptions()},
		{"modern", core.ModernOptions()},
		{"lrb", core.LrbOptions()},
		{"tiered", core.TieredOptions()},
		{"chaff", core.ChaffOptions()},
		{"limmat", core.LimmatOptions()},
		{"berkmin-luby", lubyOptions()},
		{"berkmin-rand", core.BranchOptions(core.PolarityTakeRand)},
		{"chaff-phase", chaffPhaseOptions()},
		{"berkmin-geo", geometricOptions()},
		{"berkmin-inp", core.InprocessingOptions()},
	}
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		c := base[i%len(base)]
		c.Opt.Seed = baseSeed + uint64(i)
		if i >= len(base) {
			c.Name = fmt.Sprintf("%s#%d", c.Name, i/len(base))
		}
		out = append(out, c)
	}
	return out
}

func lubyOptions() core.Options {
	o := core.DefaultOptions()
	o.Restart = core.RestartLuby
	o.RestartFirst = 100
	return o
}

func chaffPhaseOptions() core.Options {
	o := core.ChaffOptions()
	o.PhaseSaving = true
	return o
}

func geometricOptions() core.Options {
	o := core.DefaultOptions()
	o.Restart = core.RestartGeometric
	o.RestartFirst = 100
	o.RestartFactor = 1.5
	return o
}

// Hub fans exported clauses out to every other member, deduplicating so a
// clause learnt by several solvers is not re-broadcast endlessly. The
// dedup memory is bounded: past maxSeen entries the set is reset, trading
// an occasional re-broadcast (harmless — members drop duplicates they
// already hold as satisfied or re-learn cheaply) for capped growth on
// hours-long solves. The hub is shared infrastructure: the portfolio wires
// it between racing members, and the cube-and-conquer scheduler (package
// cube) between conquer workers.
type Hub struct {
	mu      sync.Mutex
	seen    map[uint64]struct{}
	solvers []*core.Solver
}

// maxSeen caps the dedup set; at ~16 bytes/entry this bounds the hub near
// ten MB even on marathon runs.
const maxSeen = 1 << 19

// NewHub returns a clause-sharing hub over the given members. Publish
// forwards a clause to every member except its exporter.
func NewHub(solvers []*core.Solver) *Hub {
	return &Hub{seen: make(map[uint64]struct{}, 1024), solvers: solvers}
}

// key folds a clause into a 64-bit fingerprint for the dedup set. The
// per-literal hashes (splitmix64 finalizer) are combined by addition, so
// the fingerprint is independent of literal order — the same clause learnt
// by two members in different orders still collides — without sorting or
// allocating; this runs under the hub mutex on every export, so it must be
// allocation-free (BenchmarkHubPublish pins 0 allocs/op). A hash collision
// between genuinely different clauses only suppresses a broadcast, never
// corrupts one, so the set needs no stored keys for equality checks.
func key(lits []cnf.Lit) uint64 {
	var h uint64
	for _, l := range lits {
		x := uint64(uint32(l)) + 0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		h += x
	}
	return h
}

// Publish offers a clause learnt by member from to every other member,
// unless an identical clause already crossed the hub. Pass from = -1 for a
// clause originating outside the members (e.g. a refuted cube's negation
// in package cube) so everyone receives it.
func (h *Hub) Publish(from int, lits []cnf.Lit, glue int) {
	k := key(lits)
	h.mu.Lock()
	if _, dup := h.seen[k]; dup {
		h.mu.Unlock()
		return
	}
	if len(h.seen) >= maxSeen {
		h.seen = make(map[uint64]struct{}, 1024)
	}
	h.seen[k] = struct{}{}
	h.mu.Unlock()
	for i, s := range h.solvers {
		if i != from {
			// The exporter's glue travels with the clause so a tiered
			// importer can place it in the right retention tier.
			s.Import(lits, glue)
		}
	}
}

// configs resolves the member configuration list (explicit Configs, or
// Jobs/GOMAXPROCS diversified variants).
func (opt *Options) configs() []Config {
	if len(opt.Configs) > 0 {
		return opt.Configs
	}
	return Variants(conc.Jobs(opt.Jobs), opt.BaseSeed)
}

// memberOptions applies the portfolio-wide budget overrides to one member
// configuration.
func memberOptions(o core.Options, opt Options) core.Options {
	if opt.MaxConflicts > 0 {
		o.MaxConflicts = opt.MaxConflicts
	}
	if opt.MaxTime > 0 {
		o.MaxTime = opt.MaxTime
	}
	return o
}

// race wires the clause-sharing hub into the prepared members and runs
// them to the first definitive answer, interrupting the rest. When ctx can
// fire, a watcher interrupts every member on cancellation (the members are
// throwaway, so no ClearInterrupt is needed); the watcher is joined before
// returning. All members are always waited for before returning, so no
// goroutine outlives the call. The winning model (if any) is in the
// members' variable space — reconstruction and verification stay with the
// caller.
func race(ctx context.Context, solvers []*core.Solver, cfgs []Config, opt Options) Result {
	if ctx.Done() != nil {
		quit := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				for _, s := range solvers {
					s.Interrupt()
				}
			case <-quit:
			}
		}()
		defer func() { close(quit); <-watcher }()
	}
	n := len(solvers)
	shareLen := opt.ShareMaxLen
	if shareLen == 0 {
		shareLen = DefaultShareMaxLen
	}
	shareGlue := opt.ShareMaxGlue
	if shareGlue == 0 {
		shareGlue = DefaultShareMaxGlue
	}
	if shareLen > 0 && n > 1 {
		h := NewHub(solvers)
		for i := range solvers {
			i := i
			solvers[i].SetLearntExport(shareLen, func(lits []cnf.Lit, glue int) {
				h.Publish(i, lits, glue)
			})
			if shareGlue > 0 {
				solvers[i].SetLearntExportGlue(shareGlue)
			}
		}
	}

	type outcome struct {
		idx int
		res core.Result
	}
	ch := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := range solvers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch <- outcome{i, solvers[i].Solve()}
		}(i)
	}

	runs := make([]JobRun, n)
	winner := -1
	for k := 0; k < n; k++ {
		o := <-ch
		runs[o.idx] = JobRun{Config: cfgs[o.idx].Name, Result: o.res}
		if winner < 0 && o.res.Status != core.StatusUnknown {
			winner = o.idx
			for j := range solvers {
				if j != o.idx {
					solvers[j].Interrupt()
				}
			}
		}
	}
	wg.Wait()

	if winner >= 0 {
		return Result{Result: runs[winner].Result, Winner: cfgs[winner].Name, Jobs: runs}
	}
	// Every member ran out of budget: report a representative run,
	// preferring one stopped by a resource limit over other reasons.
	rep := runs[0].Result
	for _, r := range runs {
		if r.Result.Stop.ResourceLimit() {
			rep = r.Result
			break
		}
	}
	return Result{Result: rep, Jobs: runs}
}

// Solve runs the portfolio to the first definitive answer. Preprocessing
// (when configured) and clause ingestion are both paid exactly once: one
// master solver ingests the simplified formula, and every member is a
// Clone of it reconfigured to its own heuristics and seed — members never
// re-feed clauses.
func Solve(f *cnf.Formula, opt Options) Result {
	return SolveContext(context.Background(), f, opt)
}

// SolveContext is Solve with cancellation: when ctx fires, preprocessing
// stops at its next pass boundary, every member is interrupted, and the
// result reports StopInterrupted. Mapping that onto errors (or HTTP codes)
// stays with the caller.
func SolveContext(ctx context.Context, f *cnf.Formula, opt Options) Result {
	orig := f
	var simplified *simplify.Outcome
	var preSpent time.Duration
	if opt.Simplify != nil {
		// Bound preprocessing by the same wall-clock budget as the members
		// and deduct what it uses, so MaxTime stays an end-to-end limit
		// for the whole call; the time spent is charged to the returned
		// Runtime like the sequential front-end does. A fired context
		// stops preprocessing at the next pass boundary.
		var interrupted func() bool
		if ctx.Done() != nil {
			interrupted = func() bool { return ctx.Err() != nil }
		}
		simplified, preSpent, opt.MaxTime = simplify.Run(f, *opt.Simplify, opt.MaxTime, interrupted)
		if simplified.Unsat {
			// Preprocessing alone refuted the formula; no race needed.
			return Result{
				Result: core.Result{Status: core.StatusUnsat, Stats: core.Stats{Runtime: preSpent}},
				Winner: "simplify",
			}
		}
		f = simplified.Formula
	}
	cfgs := opt.configs()
	master := core.New(memberOptions(cfgs[0].Opt, opt))
	master.AddFormula(f)
	solvers := make([]*core.Solver, len(cfgs))
	solvers[0] = master
	for i := 1; i < len(cfgs); i++ {
		s := master.Clone()
		s.Reconfigure(memberOptions(cfgs[i].Opt, opt))
		solvers[i] = s
	}

	res := race(ctx, solvers, cfgs, opt)
	res.Stats.Runtime += preSpent
	if res.Status == core.StatusSat {
		if simplified != nil {
			res.Model = simplified.Extend(res.Model)
		}
		if !cnf.Assignment(res.Model).Satisfies(orig) {
			// A wrong model here would mean unsound clause sharing or
			// broken model reconstruction; fail loudly rather than
			// hand back a bad witness.
			panic("portfolio: internal error: winning model does not satisfy the formula")
		}
	}
	return res
}

// SolveFromSolver races the portfolio over clones of an already-loaded
// base solver: the base keeps its formula (and anything it has learnt) and
// is never solved on or mutated, so one preprocessed master — e.g. a
// front-end Snapshot's — can serve many SolveFromSolver calls. Each member
// is base.Clone() reconfigured to its portfolio variant. Opt.Simplify is
// ignored: the base is taken as-is, and the winning model is returned in
// the base's variable space — model reconstruction (and verification)
// against any original formula stays with the caller.
func SolveFromSolver(base *core.Solver, opt Options) Result {
	return SolveFromSolverContext(context.Background(), base, opt)
}

// SolveFromSolverContext is SolveFromSolver with cancellation, as in
// SolveContext.
func SolveFromSolverContext(ctx context.Context, base *core.Solver, opt Options) Result {
	cfgs := opt.configs()
	solvers := make([]*core.Solver, len(cfgs))
	for i := range cfgs {
		s := base.Clone()
		s.Reconfigure(memberOptions(cfgs[i].Opt, opt))
		solvers[i] = s
	}
	return race(ctx, solvers, cfgs, opt)
}
