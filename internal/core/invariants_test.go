package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
)

// checkInvariants asserts the solver-wide structural invariants that every
// database pass (reduceDB, GC, inprocessing) must preserve. It is the
// reusable harness the clause-database work is pinned by: call it after
// any pass that deletes, shrinks or relocates clauses.
//
//   - the problem and learnt clause lists hold no tombstoned refs, and the
//     learnt list only learnt-flagged clauses;
//   - the tier gauges (Stats.CoreLearnts/Tier2Learnts/LocalLearnts) equal
//     an arena walk over the learnt stack, and every stored glue is
//     positive and bounded by the clause size (tiered mode);
//   - binary tier bits agree with clause size (a 2-literal learnt clause
//     is CORE);
//   - the watch lists (both tiers) contain no tombstoned refs, every
//     watcher's literal really occurs in its clause's watched slots, and
//     Stats.BinClauses equals the binary-tier walk;
//   - every assigned variable's reason ref is live, and refBin reasons
//     carry a real implying literal;
//   - the literal-indexed value array agrees with the per-variable one;
//   - the BerkMin decider's pick order picks exactly what the paper's
//     scan picks.
func checkInvariants(t testing.TB, s *Solver) {
	t.Helper()
	if !s.ok {
		// Level-0 UNSAT tears the pass down mid-flight (early returns skip
		// the rebuilds and recounts on purpose): the solver is dead and
		// every later Solve answers immediately, so there is no live state
		// left to keep consistent.
		return
	}
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			t.Fatalf("invariant: problem clause %d is tombstoned but still listed", c)
		}
	}
	core, mid, local := 0, 0, 0
	for _, c := range s.learnts {
		if s.ca.deleted(c) {
			t.Fatalf("invariant: learnt clause %d is tombstoned but still listed", c)
		}
		if !s.ca.learnt(c) {
			t.Fatalf("invariant: clause %d on the learnt stack is not learnt-flagged", c)
		}
		switch s.ca.tier(c) {
		case tierCore:
			core++
		case tierMid:
			mid++
		default:
			local++
		}
		if s.opt.Reduce == ReduceTiered {
			g := s.ca.glue(c)
			if g < 1 || g > s.ca.size(c) {
				t.Fatalf("invariant: learnt clause %d has glue %d outside [1, %d]",
					c, g, s.ca.size(c))
			}
			if s.ca.size(c) <= 2 && s.ca.tier(c) != tierCore {
				t.Fatalf("invariant: binary learnt clause %d not in CORE (tier %d)",
					c, s.ca.tier(c))
			}
		}
	}
	if s.opt.Reduce == ReduceTiered {
		if core != s.stats.CoreLearnts || mid != s.stats.Tier2Learnts || local != s.stats.LocalLearnts {
			t.Fatalf("invariant: tier gauges core=%d tier2=%d local=%d, arena walk %d/%d/%d",
				s.stats.CoreLearnts, s.stats.Tier2Learnts, s.stats.LocalLearnts, core, mid, local)
		}
	}

	for l, ws := range s.watches {
		for _, w := range ws {
			if s.ca.deleted(w.c) {
				t.Fatalf("invariant: watches[%v] holds tombstoned clause %d", cnf.Lit(l), w.c)
			}
			lits := s.ca.lits(w.c)
			if lits[0] != cnf.Lit(l) && lits[1] != cnf.Lit(l) {
				t.Fatalf("invariant: clause %d watched on %v which is not in its watched slots %v",
					w.c, cnf.Lit(l), lits[:2])
			}
		}
	}
	binEntries := 0
	for l, ws := range s.binWatches {
		for _, w := range ws {
			if s.ca.deleted(w.ref) {
				t.Fatalf("invariant: binWatches[%v] holds tombstoned clause %d", cnf.Lit(l), w.ref)
			}
			if s.ca.size(w.ref) != 2 {
				t.Fatalf("invariant: binWatches[%v] holds clause %d of size %d",
					cnf.Lit(l), w.ref, s.ca.size(w.ref))
			}
			if !s.ca.has(w.ref, cnf.Lit(l)) || !s.ca.has(w.ref, w.other) {
				t.Fatalf("invariant: binary entry (%v, %v) does not match clause %d = %v",
					cnf.Lit(l), w.other, w.ref, s.ca.lits(w.ref))
			}
			binEntries++
		}
	}
	if binEntries != 2*s.stats.BinClauses {
		t.Fatalf("invariant: BinClauses gauge = %d, binary tier holds %d entries (want %d)",
			s.stats.BinClauses, binEntries, 2*s.stats.BinClauses)
	}

	checkVals(t, s)
	for v := 1; v <= s.nVars; v++ {
		if s.assigns[v] == lUndef {
			continue
		}
		switch r := s.reason[v]; r {
		case refUndef:
		case refBin:
			if s.binReason[v] == cnf.LitUndef {
				t.Fatalf("invariant: x%d has a refBin reason but no implying literal", v)
			}
		default:
			if s.ca.deleted(r) {
				t.Fatalf("invariant: x%d's reason clause %d is tombstoned", v, r)
			}
		}
	}

	if d, ok := s.dec.(*berkminDecider); ok {
		if got, want := orderPick(d), scanPick(d); got != want {
			t.Fatalf("invariant: the pick order picks %v, the scan %v", got, want)
		}
	}
}

// checkVals asserts that the literal-indexed value array matches the
// per-variable assignment: vals[x] is assigns[x], vals[¬x] its negation,
// and the two slots below variable 1 stay unassigned.
func checkVals(t testing.TB, s *Solver) {
	t.Helper()
	if len(s.vals) != 2*len(s.assigns) || (s.nVars > 0 && len(s.assigns) != s.nVars+1) {
		t.Fatalf("invariant: %d literal values for %d variable values (%d variables)",
			len(s.vals), len(s.assigns), s.nVars)
	}
	for l := range s.vals {
		want := s.assigns[cnf.Lit(l).Var()]
		if cnf.Lit(l).Neg() {
			want = -want
		}
		if l < 2 {
			want = lUndef
		}
		if s.vals[l] != want {
			t.Fatalf("invariant: vals[%v] = %d, assigns says %d", cnf.Lit(l), s.vals[l], want)
		}
	}
}

// TestValsTrackAssigns drives every site that writes an assignment —
// enqueue (decisions and long-clause implications), enqueueBin (binary
// implications and direct calls), cancelUntil — and every operation that
// copies or grows the value arrays — Reset, Clone, ClonePruned and
// NewGroup — checking the literal-indexed array after each.
func TestValsTrackAssigns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for run := 0; run < 20; run++ {
		const n = 40
		f := cnf.New(n)
		for j := 0; j < 150; j++ {
			var c cnf.Clause
			for k := 0; k < 2+rng.Intn(3); k++ {
				c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		s := New(DefaultOptions())
		s.AddFormula(f)
		checkVals(t, s)
		if !s.ok {
			continue
		}
		freeLit := func() cnf.Lit {
			for tries := 0; tries < 4*n; tries++ {
				l := cnf.MkLit(cnf.Var(rng.Intn(s.nVars)+1), rng.Intn(2) == 0)
				if s.value(l) == lUndef {
					return l
				}
			}
			return cnf.LitUndef
		}
		for step := 0; step < 200 && s.ok; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // decide and propagate (enqueue, enqueueBin)
				l := freeLit()
				if l == cnf.LitUndef {
					s.cancelUntil(0)
					break
				}
				s.newDecisionLevel()
				s.enqueue(l, refUndef)
				if s.propagate() != refUndef {
					checkVals(t, s)
					s.cancelUntil(s.decisionLevel() - 1)
				}
			case op < 5: // a direct binary implication under a decision
				l := freeLit()
				if l == cnf.LitUndef {
					break
				}
				s.newDecisionLevel()
				s.enqueue(l, refUndef)
				if m := freeLit(); m != cnf.LitUndef {
					s.enqueueBin(m, l.Not())
				}
			case op < 7:
				s.cancelUntil(rng.Intn(s.decisionLevel() + 1))
			case op < 8:
				s.cancelUntil(0)
				c := s.Clone()
				checkVals(t, c)
				s = c
				if rng.Intn(2) == 0 {
					c := s.ClonePruned(rng.Intn(3))
					checkVals(t, c)
					s = c
				}
			case op < 9:
				s.Reset()
			default:
				s.cancelUntil(0)
				s.NewGroup()
			}
			checkVals(t, s)
		}
		// A short search from wherever the walk ended: learnt clauses for
		// ClonePruned to prune, and a live solver to copy mid-stream.
		s.cancelUntil(0)
		s.opt.MaxConflicts = 30
		s.Solve()
		checkVals(t, s)
		checkVals(t, s.ClonePruned(2))
		s.Reset()
		checkVals(t, s)
	}
}

// churnOptions returns a tiered configuration with aggressive restart,
// cleaning, GC and inprocessing cadences, so even small instances push
// clauses through every tier transition and database pass.
func churnOptions() Options {
	o := TieredOptions()
	o.RestartFirst = 8
	o.TieredFirstReduce = 12
	o.TieredReduceInc = 6
	o.EnableInprocessing()
	o.InprocessPeriod = 2
	return o
}

// TestInvariantsAfterSolve runs full solves under the BerkMin-style and
// tiered databases (the latter with inprocessing and a churn-heavy
// schedule) and checks the structural invariants at the end of each.
func TestInvariantsAfterSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	formulas := []*cnf.Formula{pigeonhole(5), pigeonhole(6)}
	for i := 0; i < 4; i++ {
		f := cnf.New(25)
		for j := 0; j < 105; j++ {
			var c cnf.Clause
			for k := 0; k < 3; k++ {
				c = append(c, cnf.MkLit(cnf.Var(rng.Intn(25)+1), rng.Intn(2) == 0))
			}
			f.Add(c)
		}
		formulas = append(formulas, f)
	}
	for name, opt := range map[string]Options{
		"berkmin": DefaultOptions(),
		"tiered":  churnOptions(),
	} {
		for i, f := range formulas {
			s := New(opt)
			s.AddFormula(f)
			if r := s.Solve(); r.Status == StatusUnknown {
				t.Fatalf("%s formula %d: unexpected UNKNOWN", name, i)
			}
			checkInvariants(t, s)
			// A budget-limited run leaves a live solver mid-problem — the
			// state an incremental caller would build on — where the full
			// invariant set is enforceable (an UNSAT finish above may have
			// torn the structures down with the solver already dead).
			limited := opt
			limited.MaxConflicts = 40
			s2 := New(limited)
			s2.AddFormula(f)
			s2.Solve()
			checkInvariants(t, s2)
		}
	}
}

// TestInvariantsAfterEveryReduce drives a solve that checks the
// invariants after every single database pass, not just at the end: the
// restart hook fires reduceDB at each conflict boundary via RestartFirst=1.
func TestInvariantsAfterEveryReduce(t *testing.T) {
	o := churnOptions()
	o.RestartFirst = 1
	s := New(o)
	s.AddFormula(pigeonhole(5))
	conflicts := 0
	s.debugConflict = func(clauseRef) {
		conflicts++
		if conflicts%3 == 0 {
			// The solver sits mid-search here; the clause lists and reasons
			// must be consistent at every conflict, database pass or not.
			checkInvariants(t, s)
		}
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if s.stats.Restarts == 0 {
		t.Fatal("expected restarts (and reduceDB passes)")
	}
	checkInvariants(t, s)
}

// TestInvariantsAfterGC forces arena compactions during a tiered solve and
// re-checks the invariants (refs relocated, watches rebuilt).
func TestInvariantsAfterGC(t *testing.T) {
	o := churnOptions()
	s := New(o)
	s.AddFormula(pigeonhole(6))
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if s.stats.ArenaGCs == 0 {
		t.Skip("no GC triggered at this size; covered by arena tests")
	}
	checkInvariants(t, s)
}
