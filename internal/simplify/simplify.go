// Package simplify is a CNF preprocessor: unit propagation, tautology and
// duplicate removal, subsumption, self-subsuming resolution
// (strengthening) and bounded variable elimination, with model
// reconstruction for eliminated variables.
//
// BerkMin itself simplifies its database under retained level-0
// assignments at every restart (§8); this package extends that idea to a
// standalone SatELite-style preprocessor — a post-BerkMin technique — so
// generated benchmark CNFs can be solved in either raw or preprocessed
// form. Solving the simplified formula plus Outcome.Extend reconstructs a
// model of the original.
package simplify

import (
	"io"
	"slices"
	"sort"
	"time"

	"berkmin/internal/cnf"
	"berkmin/internal/drup"
)

// Options bounds the preprocessing effort.
type Options struct {
	// Subsume enables subsumption and self-subsuming resolution.
	Subsume bool
	// EliminateVars enables bounded variable elimination.
	EliminateVars bool
	// MaxGrowth is the largest allowed increase in clause count when
	// eliminating one variable (0 = never grow, NiVER-style).
	MaxGrowth int
	// MaxOccurrences skips elimination of variables occurring more often
	// than this (cost control; 0 means a default of 16).
	MaxOccurrences int
	// MaxRounds bounds the simplification fixpoint loop (0 = default 5).
	MaxRounds int
	// MaxSubsumeOcc bounds the occurrence-list length scanned per
	// candidate during subsumption and strengthening, keeping a pass
	// near-linear even when huge formulas share literals across most
	// clauses (0 = default 1000).
	MaxSubsumeOcc int
	// Deadline, when non-zero, stops simplification at the next pass
	// boundary once the wall clock passes it. Stop, when non-nil, is
	// polled periodically and stops simplification when it returns true
	// (the solver front-end wires it to Interrupt). Either way the
	// partially simplified outcome is equisatisfiable and fully usable —
	// simplification is cut short, never corrupted.
	Deadline time.Time
	Stop     func() bool
	// Proof, when non-nil, receives a DRUP trace of every simplification
	// step: derived units, strengthened clauses and resolvents as
	// additions; subsumed, strengthened and satisfied clauses as
	// deletions. Every addition is a unit consequence or a resolvent of
	// live clauses, so the trace — followed by a solver's proof for the
	// simplified formula — verifies against the ORIGINAL formula with
	// package drup. Two deliberate asymmetries keep that guarantee under
	// variable elimination: pure literals are handled as clause removals
	// (never fixed as units, which would not be RUP), and
	// eliminated-variable clauses get no deletion lines at all, so that
	// Restore can hand them back to the solver under incremental use
	// without the checker having forgotten them.
	Proof io.Writer
}

// DefaultOptions enables everything with conservative bounds.
func DefaultOptions() Options {
	return Options{Subsume: true, EliminateVars: true, MaxGrowth: 0, MaxOccurrences: 16, MaxRounds: 5}
}

// Elim records one eliminated variable and the original clauses it
// occurred in, for model reconstruction.
type Elim struct {
	V       cnf.Var
	Clauses []cnf.Clause

	// restored marks an elimination reverted by Outcome.Restore: the
	// variable is constrained again in the solver, so Extend must not
	// overwrite its model value.
	restored bool
}

// Outcome is the preprocessing result.
type Outcome struct {
	// Formula is the simplified CNF (over the same variable numbering;
	// eliminated variables simply no longer occur).
	Formula *cnf.Formula
	// Unsat is true when preprocessing alone refuted the formula.
	Unsat bool
	// Units are the literals fixed by preprocessing.
	Units []cnf.Lit
	// Elims holds eliminated variables in elimination order.
	Elims []Elim

	// statistics
	RemovedTautologies int
	RemovedSubsumed    int
	StrengthenedLits   int
	EliminatedVars     int
	PropagatedUnits    int
}

type workClause struct {
	lits    []cnf.Lit
	sig     uint64 // literal-occurrence signature for fast subsumption tests
	deleted bool
}

type simplifier struct {
	opt     Options
	nVars   int
	clauses []*workClause
	occ     [][]*workClause // per literal
	assign  []int8          // 0 undef, 1 true, -1 false
	queue   []cnf.Lit
	out     *Outcome
	proof   io.Writer // optional DRUP trace (Options.Proof)

	// contradiction is set when strengthening derives the empty clause
	// (resolving two contradictory unit clauses); the fixpoint loop stops
	// and reports UNSAT.
	contradiction bool

	// Budget state: aborted is set once the deadline passes or Stop fires;
	// polls rate-limits the wall-clock reads.
	aborted bool
	polls   uint

	lineBuf []byte // reusable DRUP line buffer (drup.AppendLine)

	// Elimination scratch, reused across candidate variables: the live
	// occurrences of x and ¬x, their literals under the current assignment
	// (slices of one buffer; nil marks a satisfied clause), and the
	// per-literal stamps that test resolvents for tautology.
	posOcc, negOcc []*workClause
	curBuf         []cnf.Lit
	cur            []cnf.Clause
	mark           []uint32
	stamp          uint32

	// debugElim, when set, observes each candidate variable the growth
	// bound is about to be checked for (test hook).
	debugElim func(v cnf.Var, pos, neg []*workClause)
}

// outOfBudget polls the configured deadline/stop hook (rate-limited: the
// wall clock is read every 2048th call). Once it fires, every pass winds
// down at its next boundary and the current state is emitted as-is.
func (s *simplifier) outOfBudget() bool {
	if s.aborted {
		return true
	}
	if s.polls++; s.polls&0x7FF != 0 {
		return false
	}
	if s.opt.Stop != nil && s.opt.Stop() {
		s.aborted = true
	} else if !s.opt.Deadline.IsZero() && time.Now().After(s.opt.Deadline) {
		s.aborted = true
	}
	return s.aborted
}

// proofAdd logs a derived clause (via the emitter shared with the core
// engine, drup.WriteLine). Callers guarantee it is RUP against the
// current database: a unit reached by propagation, or a resolvent of two
// live clauses (assuming a resolvent false unit-propagates one parent into
// the pivot and the other into a conflict).
func (s *simplifier) proofAdd(lits []cnf.Lit) {
	if s.proof != nil {
		s.lineBuf = drup.AppendLine(s.lineBuf, false, lits)
		s.proof.Write(s.lineBuf)
	}
}

// proofDelete logs a clause removal, always in the clause's physical
// (stored) form — the form the checker's database holds.
func (s *simplifier) proofDelete(lits []cnf.Lit) {
	if s.proof != nil {
		s.lineBuf = drup.AppendLine(s.lineBuf, true, lits)
		s.proof.Write(s.lineBuf)
	}
}

// proofEmpty completes an UNSAT trace.
func (s *simplifier) proofEmpty() {
	if s.proof != nil {
		s.lineBuf = drup.AppendLine(s.lineBuf, false, nil)
		s.proof.Write(s.lineBuf)
	}
}

// Run executes Simplify under an end-to-end wall-clock budget — the one
// shared implementation of "bound preprocessing, deduct what it used" for
// every front-end (berkmin.Solver, the portfolio, the bench harness).
// When budget > 0, a deadline is installed (unless the caller set one)
// and the remaining budget is returned with the elapsed time deducted,
// clamped to 1ms so the follow-on search still times out promptly rather
// than running unbounded. A budget of 0 means unlimited and is returned
// unchanged. stop, when non-nil, is OR-composed with any caller-supplied
// Options.Stop (so a solver Interrupt always cancels preprocessing).
func Run(f *cnf.Formula, opt Options, budget time.Duration, stop func() bool) (o *Outcome, elapsed, remaining time.Duration) {
	start := time.Now()
	if opt.Deadline.IsZero() && budget > 0 {
		opt.Deadline = start.Add(budget)
	}
	if stop != nil {
		if user := opt.Stop; user != nil {
			opt.Stop = func() bool { return user() || stop() }
		} else {
			opt.Stop = stop
		}
	}
	o = Simplify(f, opt)
	elapsed = time.Since(start)
	remaining = budget
	if budget > 0 {
		if remaining = budget - elapsed; remaining < time.Millisecond {
			remaining = time.Millisecond
		}
	}
	return o, elapsed, remaining
}

// Simplify preprocesses the formula. The input is not modified.
func Simplify(f *cnf.Formula, opt Options) *Outcome {
	return newSimplifier(f.NumVars, opt).run(f)
}

// newSimplifier fills in the option defaults and sizes the per-variable
// and per-literal arrays.
func newSimplifier(nVars int, opt Options) *simplifier {
	if opt.MaxOccurrences <= 0 {
		opt.MaxOccurrences = 16
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 5
	}
	if opt.MaxSubsumeOcc <= 0 {
		opt.MaxSubsumeOcc = 1000
	}
	return &simplifier{
		opt:    opt,
		nVars:  nVars,
		occ:    make([][]*workClause, 2*nVars+2),
		assign: make([]int8, nVars+1),
		mark:   make([]uint32, 2*nVars+2),
		out:    &Outcome{},
		proof:  opt.Proof,
	}
}

// run loads f, simplifies to a fixpoint and emits the outcome.
func (s *simplifier) run(f *cnf.Formula) *Outcome {
	opt := s.opt
	for _, c := range f.Clauses {
		norm, taut := c.Clone().Normalize()
		if taut {
			s.out.RemovedTautologies++
			continue
		}
		if len(norm) == 0 {
			return s.finishUnsat(f.NumVars)
		}
		if len(norm) == 1 {
			s.queue = append(s.queue, norm[0])
			continue
		}
		s.addClause(norm)
	}
	if !s.propagate() {
		return s.finishUnsat(f.NumVars)
	}
	for round := 0; round < opt.MaxRounds && !s.aborted; round++ {
		changed := false
		if opt.Subsume {
			changed = s.subsumptionPass() || changed
			if s.contradiction || !s.propagate() {
				return s.finishUnsat(f.NumVars)
			}
		}
		if opt.EliminateVars {
			changed = s.eliminationPass() || changed
			if s.contradiction || !s.propagate() {
				return s.finishUnsat(f.NumVars)
			}
		}
		if !changed {
			break
		}
	}
	// Emit the simplified formula.
	out := cnf.New(f.NumVars)
	for _, c := range s.clauses {
		if c.deleted {
			continue
		}
		kept := s.currentLits(c)
		if kept == nil {
			// Satisfied by a fixed assignment whose unit is already in the
			// trace, so the deletion is safe for the checker.
			s.proofDelete(c.lits)
			continue
		}
		out.Add(kept)
	}
	for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
		switch s.assign[v] {
		case 1:
			s.out.Units = append(s.out.Units, cnf.PosLit(v))
			out.Add(cnf.Clause{cnf.PosLit(v)})
		case -1:
			s.out.Units = append(s.out.Units, cnf.NegLit(v))
			out.Add(cnf.Clause{cnf.NegLit(v)})
		}
	}
	s.out.Formula = out
	return s.out
}

func (s *simplifier) finishUnsat(nVars int) *Outcome {
	s.out.Unsat = true
	s.out.Formula = cnf.New(nVars)
	s.out.Formula.Add(cnf.Clause{})
	// The conflict was reached by unit propagation over the database plus
	// the units already in the trace, so the empty clause is RUP and the
	// trace is a complete refutation on its own.
	s.proofEmpty()
	return s.out
}

func (s *simplifier) addClause(lits []cnf.Lit) *workClause {
	c := &workClause{lits: lits, sig: cnf.Clause(lits).Signature()}
	s.clauses = append(s.clauses, c)
	for _, l := range lits {
		s.occ[l] = append(s.occ[l], c)
	}
	return c
}

func (s *simplifier) val(l cnf.Lit) int8 {
	v := s.assign[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

// currentLits returns the clause's literals under the current fixed
// assignment, or nil when satisfied.
func (s *simplifier) currentLits(c *workClause) cnf.Clause {
	out := make(cnf.Clause, 0, len(c.lits))
	for _, l := range c.lits {
		switch s.val(l) {
		case 1:
			return nil
		case 0:
			out = append(out, l)
		}
	}
	return out
}

// propagate fixes queued units to a fixpoint; false on conflict.
func (s *simplifier) propagate() bool {
	for len(s.queue) > 0 {
		l := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		switch s.val(l) {
		case 1:
			continue
		case -1:
			return false
		}
		if l.Neg() {
			s.assign[l.Var()] = -1
		} else {
			s.assign[l.Var()] = 1
		}
		s.out.PropagatedUnits++
		// Every fixed literal enters the trace as a unit. Each is RUP when
		// logged: it was queued from an input unit, a clause made unit by
		// previously-logged units, a strengthened clause already in the
		// trace, or an elimination resolvent already in the trace.
		s.proofAdd([]cnf.Lit{l})
		// Clauses containing ¬l may become unit.
		for _, c := range s.occ[l.Not()] {
			if c.deleted {
				continue
			}
			lits := s.currentLits(c)
			if lits == nil {
				continue
			}
			switch len(lits) {
			case 0:
				return false
			case 1:
				s.queue = append(s.queue, lits[0])
			}
		}
	}
	return true
}

// subsumptionPass removes subsumed clauses and applies self-subsuming
// resolution. Returns whether anything changed.
func (s *simplifier) subsumptionPass() bool {
	changed := false
	// Sort by length so short (strong) clauses subsume first.
	order := make([]*workClause, 0, len(s.clauses))
	for _, c := range s.clauses {
		if !c.deleted {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(i, j int) bool { return len(order[i].lits) < len(order[j].lits) })
	for _, c := range order {
		if c.deleted {
			continue
		}
		if s.outOfBudget() {
			return changed
		}
		// Find the literal with the fewest occurrences to scan candidates.
		best := c.lits[0]
		for _, l := range c.lits[1:] {
			if len(s.occ[l]) < len(s.occ[best]) {
				best = l
			}
		}
		if len(s.occ[best]) <= s.opt.MaxSubsumeOcc {
			for _, d := range s.occ[best] {
				if d == c || d.deleted || len(d.lits) < len(c.lits) {
					continue
				}
				if c.sig&^d.sig != 0 {
					continue // fast reject
				}
				if cnf.Clause(d.lits).ContainsAll(c.lits) {
					d.deleted = true
					s.proofDelete(d.lits)
					s.out.RemovedSubsumed++
					changed = true
				}
			}
		}
		// Self-subsuming resolution: c = (l ∨ A); any d ⊇ A ∪ {¬l} can
		// drop ¬l.
		for _, l := range c.lits {
			neg := l.Not()
			if len(s.occ[neg]) > s.opt.MaxSubsumeOcc {
				continue
			}
			negSig := c.sig &^ (1 << (uint(l) % 64))
			negSig |= 1 << (uint(neg) % 64)
			for _, d := range s.occ[neg] {
				if d.deleted || len(d.lits) < len(c.lits) {
					continue
				}
				if negSig&^d.sig != 0 {
					continue
				}
				if cnf.SubsumesExcept(c.lits, d.lits, l, neg) {
					var old []cnf.Lit
					if s.proof != nil {
						old = append([]cnf.Lit(nil), d.lits...)
					}
					s.strengthen(d, neg)
					// The strengthened clause is the resolvent of c and the
					// old d: add it (RUP while old d is live), then retire
					// the old form.
					s.proofAdd(d.lits)
					s.proofDelete(old)
					s.out.StrengthenedLits++
					changed = true
					switch len(d.lits) {
					case 0:
						// c and d were the contradictory units (x) and
						// (¬x): the resolvent just logged is the empty
						// clause — the formula is refuted.
						d.deleted = true
						s.contradiction = true
						return true
					case 1:
						s.queue = append(s.queue, d.lits[0])
					}
				}
			}
		}
	}
	return changed
}

// strengthen removes the literal from the clause (occurrence lists keep a
// stale entry; deleted/changed clauses are re-checked via signatures).
func (s *simplifier) strengthen(c *workClause, l cnf.Lit) {
	out := c.lits[:0]
	for _, x := range c.lits {
		if x != l {
			out = append(out, x)
		}
	}
	c.lits = out
	c.sig = cnf.Clause(out).Signature()
}

// eliminationPass applies bounded variable elimination. Returns whether
// anything changed.
func (s *simplifier) eliminationPass() bool {
	changed := false
	for v := cnf.Var(1); int(v) <= s.nVars; v++ {
		if s.outOfBudget() {
			return changed
		}
		// Drain pending units first: a unit resolvent queued by an earlier
		// elimination in this same pass may constrain v (resolving (x v)
		// with (¬x v) yields the unit (v)). Eliminating a variable the
		// queue is about to fix would leave it both eliminated and
		// constrained, and Extend would overwrite its forced value —
		// producing a non-model of the original formula.
		if len(s.queue) > 0 && !s.propagate() {
			s.contradiction = true
			return true
		}
		if s.assign[v] != 0 {
			continue
		}
		s.posOcc = s.liveOcc(s.posOcc, cnf.PosLit(v))
		s.negOcc = s.liveOcc(s.negOcc, cnf.NegLit(v))
		pos, neg := s.posOcc, s.negOcc
		if len(pos) == 0 && len(neg) == 0 {
			continue
		}
		if len(pos) == 0 || len(neg) == 0 {
			// Pure literal: a degenerate variable elimination with zero
			// resolvents. Dropping every clause containing the literal and
			// letting Extend pick the satisfying value keeps the proof pure
			// DRUP (fixing the literal as a unit would not be RUP — a pure
			// literal is satisfiability-preserving, not implied).
			occ := pos
			if len(occ) == 0 {
				occ = neg
			}
			elim := Elim{V: v}
			for _, c := range occ {
				if lits := s.currentLits(c); lits != nil {
					elim.Clauses = append(elim.Clauses, lits)
				}
				// No deletion line: eliminated clauses may be Restored
				// under incremental use, and a checker that kept them only
				// finds RUP conflicts more easily.
				c.deleted = true
			}
			s.out.Elims = append(s.out.Elims, elim)
			s.out.EliminatedVars++
			changed = true
			continue
		}
		if len(pos)+len(neg) > s.opt.MaxOccurrences {
			continue
		}
		if s.debugElim != nil {
			s.debugElim(v, pos, neg)
		}
		cur := s.currentOcc(pos, neg)
		curPos, curNeg := cur[:len(pos)], cur[len(pos):]
		bound := len(pos) + len(neg) + s.opt.MaxGrowth
		n, stop := s.countResolvents(v, curPos, curNeg, bound)
		if stop == stopEmpty {
			// Empty resolvent: the formula is unsatisfiable. Queue the
			// contradiction; the caller's propagation turns it into the
			// UNSAT outcome.
			s.queue = append(s.queue, cnf.PosLit(v), cnf.NegLit(v))
			return true
		}
		if stop == stopSatisfied || n > bound {
			continue
		}
		resolvents := s.buildResolvents(v, curPos, curNeg, n)
		// Log every resolvent BEFORE the parent clauses leave the
		// database: each is RUP only while its parents are live.
		for _, r := range resolvents {
			s.proofAdd(r)
		}
		// Record the original clauses for model reconstruction, then swap.
		// As in the pure-literal case, no deletion lines: Restore may
		// re-add these clauses to the solver under incremental use, and a
		// clause a checker retains can never break a later RUP step. No
		// clause is satisfied here (countResolvents would have stopped).
		elim := Elim{V: v, Clauses: make([]cnf.Clause, len(cur))}
		slab := make([]cnf.Lit, 0, len(s.curBuf))
		for i, lits := range cur {
			slab = append(slab, lits...)
			elim.Clauses[i] = slab[len(slab)-len(lits) : len(slab) : len(slab)]
		}
		for _, c := range pos {
			c.deleted = true
		}
		for _, c := range neg {
			c.deleted = true
		}
		s.out.Elims = append(s.out.Elims, elim)
		s.out.EliminatedVars++
		for _, r := range resolvents {
			if len(r) == 1 {
				s.queue = append(s.queue, r[0])
				continue
			}
			s.addClause(r)
		}
		changed = true
	}
	return changed
}

// liveOcc fills buf with the live clauses that still contain l.
func (s *simplifier) liveOcc(buf []*workClause, l cnf.Lit) []*workClause {
	buf = buf[:0]
	for _, c := range s.occ[l] {
		if c.deleted {
			continue
		}
		// Strengthening may have removed l; occurrence lists are lazy.
		if cnf.Clause(c.lits).Has(l) {
			buf = append(buf, c)
		}
	}
	return buf
}

// currentOcc returns the literals of pos and then neg under the current
// assignment (nil for a satisfied clause), as slices of one reused buffer:
// computed once per candidate, for counting, building and recording.
func (s *simplifier) currentOcc(pos, neg []*workClause) []cnf.Clause {
	total := 0
	for _, c := range pos {
		total += len(c.lits)
	}
	for _, c := range neg {
		total += len(c.lits)
	}
	// Sized up front so no append below moves the slices handed out.
	buf := slices.Grow(s.curBuf[:0], total)
	cur := s.cur[:0]
	for _, occ := range [2][]*workClause{pos, neg} {
		for _, c := range occ {
			start := len(buf)
			sat := false
			for _, l := range c.lits {
				if x := s.val(l); x == 1 {
					sat = true
					break
				} else if x == 0 {
					buf = append(buf, l)
				}
			}
			if sat {
				buf = buf[:start]
				cur = append(cur, nil)
				continue
			}
			cur = append(cur, buf[start:len(buf):len(buf)])
		}
	}
	s.curBuf, s.cur = buf, cur
	return cur
}

// resolveStop is why countResolvents stopped before visiting every pair.
type resolveStop uint8

const (
	stopNone      resolveStop = iota
	stopSatisfied             // a clause is satisfied: postpone the variable
	stopEmpty                 // a pair resolves to the empty clause
)

// countResolvents counts the non-tautological resolvents on v of the
// clauses pos (holding v) and neg (holding ¬v) without building any. Pairs
// are visited in row order, and a satisfied clause (nil) or a pair whose
// resolvent is empty stops the count at the first pair it touches. Once
// the count passes limit the rest is only scanned for those two stops, so
// n is exact up to limit+1.
func (s *simplifier) countResolvents(v cnf.Var, pos, neg []cnf.Clause, limit int) (n int, stop resolveStop) {
	for _, a := range pos {
		if a == nil {
			return n, stopSatisfied
		}
		s.markSide(a, v)
		for _, b := range neg {
			if b == nil {
				return n, stopSatisfied
			}
			if len(a) == 1 && len(b) == 1 {
				return n, stopEmpty // (v) and (¬v)
			}
			if n <= limit && !s.clashes(b) {
				n++
			}
		}
	}
	return n, stopNone
}

// buildResolvents returns the n non-tautological resolvents of pos and
// neg on v, normalized, in countResolvents' pair order. The caller has
// established that no clause is satisfied and no resolvent is empty.
func (s *simplifier) buildResolvents(v cnf.Var, pos, neg []cnf.Clause, n int) []cnf.Clause {
	out := make([]cnf.Clause, 0, n)
	for _, a := range pos {
		s.markSide(a, v)
		for _, b := range neg {
			if s.clashes(b) {
				continue
			}
			r := make(cnf.Clause, 0, len(a)+len(b)-2)
			for _, l := range a {
				if l.Var() != v {
					r = append(r, l)
				}
			}
			for _, l := range b {
				if l.Var() != v {
					r = append(r, l)
				}
			}
			r, _ = r.Normalize()
			out = append(out, r)
		}
	}
	return out
}

// markSide stamps every literal of a except v's.
func (s *simplifier) markSide(a cnf.Clause, v cnf.Var) {
	if s.stamp++; s.stamp == 0 {
		clear(s.mark)
		s.stamp = 1
	}
	for _, l := range a {
		if l.Var() != v {
			s.mark[l] = s.stamp
		}
	}
}

// clashes reports whether b holds the complement of a literal stamped by
// the last markSide, i.e. whether resolving the marked clause with b on the
// pivot gives a tautology (the pivot's own literal is never stamped).
func (s *simplifier) clashes(b cnf.Clause) bool {
	for _, l := range b {
		if s.mark[l.Not()] == s.stamp {
			return true
		}
	}
	return false
}

// Extend completes a model of the simplified formula into a model of the
// original: eliminated variables are assigned, in reverse elimination
// order, the value that satisfies all their original clauses. Variables
// whose elimination was reverted by Restore keep the solver's value.
func (o *Outcome) Extend(model []bool) []bool {
	return o.extend(model, nil)
}

// Restore reverts the i-th elimination for incremental solving: when a
// later clause or assumption mentions an eliminated variable, the caller
// re-adds the returned original clauses to the solver (making the variable
// a first-class constraint again) and Extend stops synthesizing a value
// for it. The returned clauses may themselves mention variables eliminated
// AFTER this one — the caller must restore those transitively, or the
// reconstruction of those variables could falsify the re-added clauses.
//
// Restore mutates the outcome and is for a single-owner outcome only: when
// one outcome backs several solvers (snapshot fan-out), each solver must
// use its own View instead (view.go).
func (o *Outcome) Restore(i int) []cnf.Clause {
	e := &o.Elims[i]
	if e.restored {
		return nil
	}
	e.restored = true
	cs := e.Clauses
	e.Clauses = nil
	return cs
}
