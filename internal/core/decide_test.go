package core

import (
	"math/rand"
	"testing"
	"time"

	"berkmin/internal/cnf"
)

// bm returns the solver's installed decider as the legacy berkminDecider;
// the tests below drive its activity arrays and picking rules directly.
func bm(s *Solver) *berkminDecider { return s.dec.(*berkminDecider) }

// setVarAct writes a variable's var_activity and re-arms the pick order, so
// the global pick sees the value as if the decider had bumped it there.
func setVarAct(s *Solver, v cnf.Var, a int64) {
	bm(s).varAct[v] = a
	bm(s).rearmHeaps()
}

// setChaffAct is setVarAct for a Chaff literal counter.
func setChaffAct(s *Solver, l cnf.Lit, a int64) {
	bm(s).chaffAct[l] = a
	bm(s).rearmHeaps()
}

// addLearnt allocates a learnt clause in the arena and pushes it on the
// conflict-clause stack without attaching watches (decision-heuristic
// tests drive the stack directly).
func addLearnt(s *Solver, lits ...cnf.Lit) clauseRef {
	c := s.ca.alloc(lits, true)
	s.learnts = append(s.learnts, c)
	return c
}

// TestTopClauseSelection checks §5: the branching variable comes from the
// unsatisfied conflict clause closest to the top of the stack, and the
// most active free variable of that clause is picked.
func TestTopClauseSelection(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(6)
	// Three learnt clauses; the topmost is satisfied, the middle is the
	// current top clause.
	addLearnt(s, cnf.PosLit(1), cnf.PosLit(2))
	mid := addLearnt(s, cnf.PosLit(3), cnf.PosLit(4))
	addLearnt(s, cnf.PosLit(5), cnf.PosLit(6))
	// Satisfy the topmost clause.
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(5), refUndef)

	c, r := s.currentTopClause()
	if c != mid {
		t.Fatalf("current top clause = %v, want the middle clause", s.ca.lits(c))
	}
	if r != 1 {
		t.Fatalf("distance = %d, want 1", r)
	}

	// Most active free variable of the top clause wins.
	bm(s).varAct[3] = 5
	bm(s).varAct[4] = 9
	if v := bm(s).mostActiveFreeInClause(mid); v != 4 {
		t.Fatalf("picked %d, want 4", v)
	}
	bm(s).varAct[3] = 9 // tie broken toward the lower variable
	if v := bm(s).mostActiveFreeInClause(mid); v != 3 {
		t.Fatalf("picked %d, want 3 on tie", v)
	}
}

// TestAllLearntsSatisfiedFallsBackToGlobal checks the §5 fallback: when
// every conflict clause is satisfied, the globally most active free
// variable is chosen.
func TestAllLearntsSatisfiedFallsBackToGlobal(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(3, 4))
	addLearnt(s, cnf.PosLit(1), cnf.PosLit(2))
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	setVarAct(s, 3, 7)
	if c, _ := s.currentTopClause(); c != refUndef {
		t.Fatal("no unsatisfied learnt expected")
	}
	l := bm(s).pickBerkMin()
	if l.Var() != 3 {
		t.Fatalf("decision on %v, want variable 3", l)
	}
	if s.stats.GlobalDecisions != 1 {
		t.Fatal("global decision not counted")
	}
}

// TestLitActivityPolarity checks the §7 example: with lit_activity(c)=3 and
// lit_activity(¬c)=5, branch c=0 is explored first (the future conflict
// clauses contain the rarer literal c).
func TestLitActivityPolarity(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(1)
	bm(s).litAct[cnf.PosLit(1)] = 3
	bm(s).litAct[cnf.NegLit(1)] = 5
	if l := bm(s).litActivityPolarity(1); l != cnf.NegLit(1) {
		t.Fatalf("branch = %v, want x1=0 (¬x1)", l)
	}
	bm(s).litAct[cnf.PosLit(1)] = 8
	if l := bm(s).litActivityPolarity(1); l != cnf.PosLit(1) {
		t.Fatalf("branch = %v, want x1=1", l)
	}
}

// TestPolarityModes checks the Table 4 heuristics against a crafted top
// clause containing ¬x.
func TestPolarityModes(t *testing.T) {
	mkSolver := func(p PolarityMode) (*Solver, clauseRef) {
		s := New(BranchOptions(p))
		s.ensureVars(2)
		c := addLearnt(s, cnf.NegLit(1), cnf.PosLit(2))
		return s, c
	}
	s, c := mkSolver(PolaritySatTop)
	if l := bm(s).topClausePolarity(1, c); l != cnf.NegLit(1) {
		t.Fatalf("sat_top: %v, want ¬x1 (satisfies the clause)", l)
	}
	s, c = mkSolver(PolarityUnsatTop)
	if l := bm(s).topClausePolarity(1, c); l != cnf.PosLit(1) {
		t.Fatalf("unsat_top: %v, want x1", l)
	}
	s, c = mkSolver(PolarityTake0)
	if l := bm(s).topClausePolarity(1, c); l != cnf.NegLit(1) {
		t.Fatalf("take_0: %v", l)
	}
	s, c = mkSolver(PolarityTake1)
	if l := bm(s).topClausePolarity(1, c); l != cnf.PosLit(1) {
		t.Fatalf("take_1: %v", l)
	}
	s, c = mkSolver(PolarityTakeRand)
	seenPos, seenNeg := false, false
	for i := 0; i < 64; i++ {
		switch bm(s).topClausePolarity(1, c) {
		case cnf.PosLit(1):
			seenPos = true
		case cnf.NegLit(1):
			seenNeg = true
		}
	}
	if !seenPos || !seenNeg {
		t.Fatal("take_rand never varied")
	}
}

// TestNbTwo checks §7's cost function on a crafted formula.
func TestNbTwo(t *testing.T) {
	s := New(DefaultOptions())
	// Binary clauses: (1 2), (1 3), (-2 4), (-2 5), (-3 6).
	// nb_two(+1) = 2 (two binaries with literal 1)
	//   + for (1∨2): binaries containing ¬2: (−2 4), (−2 5) → +2
	//   + for (1∨3): binaries containing ¬3: (−3 6) → +1
	//   = 5.
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(1, 3))
	s.AddClause(cnf.NewClause(-2, 4))
	s.AddClause(cnf.NewClause(-2, 5))
	s.AddClause(cnf.NewClause(-3, 6))
	// A ternary clause with literal 1 must not count.
	s.AddClause(cnf.NewClause(1, 5, 6))
	if got := s.nbTwo(cnf.PosLit(1)); got != 5 {
		t.Fatalf("nb_two(+1) = %d, want 5", got)
	}
	// ¬1 appears in no clause.
	if got := s.nbTwo(cnf.NegLit(1)); got != 0 {
		t.Fatalf("nb_two(-1) = %d, want 0", got)
	}
	// The chosen branch sets the higher-cost literal to 0: nbTwoPolarity
	// must return ¬1 (assigning x1=0 falsifies literal 1).
	if l := s.nbTwoPolarity(1); l != cnf.NegLit(1) {
		t.Fatalf("polarity = %v, want ¬x1", l)
	}
}

// TestNbTwoCountsCurrentlyBinary pins the binary-tier semantics: the count
// runs over structurally binary problem clauses, corrected for assignments
// during the scan — a satisfied binary clause stops counting, and a long
// clause never counts, even when assignments have made it effectively
// binary (the deliberate narrowing documented on nbTwo).
func TestNbTwoCountsCurrentlyBinary(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2, 3)) // ternary: never counted, assigned or not
	s.AddClause(cnf.NewClause(1, 4))    // binary; satisfied once 4 is true
	if got := s.nbTwo(cnf.PosLit(1)); got != 1 {
		t.Fatalf("nb_two = %d, want 1", got)
	}
	s.newDecisionLevel()
	s.enqueue(cnf.NegLit(3), refUndef) // (1 2 3) effectively binary: still not counted
	if got := s.nbTwo(cnf.PosLit(1)); got != 1 {
		t.Fatalf("nb_two with falsified ternary literal = %d, want 1", got)
	}
	s.enqueue(cnf.PosLit(4), refUndef) // (1 4) becomes satisfied
	if got := s.nbTwo(cnf.PosLit(1)); got != 0 {
		t.Fatalf("nb_two with satisfied binary = %d, want 0", got)
	}
}

// nbTwoScan is the pre-specialization reference implementation of §7's
// cost function: a full scan of every problem clause containing l through
// occurrence lists, re-deriving "currently binary" per clause. The tests
// and BenchmarkNbTwoScan keep it as the semantic baseline the binary-tier
// nbTwo is measured against.
func nbTwoScan(s *Solver, occ [][]clauseRef, l cnf.Lit, threshold int) int {
	binaryOther := func(c clauseRef, skip cnf.Lit) (cnf.Lit, bool) {
		other := cnf.LitUndef
		for _, x := range s.ca.lits(c) {
			switch s.value(x) {
			case lTrue:
				return cnf.LitUndef, false
			case lUndef:
				if x == skip {
					continue
				}
				if other != cnf.LitUndef {
					return cnf.LitUndef, false // three or more unassigned
				}
				other = x
			}
		}
		if other == cnf.LitUndef {
			return cnf.LitUndef, false
		}
		return other, true
	}
	total := 0
	for _, c := range occ[l] {
		other, binary := binaryOther(c, l)
		if !binary {
			continue
		}
		total++
		for _, d := range occ[other.Not()] {
			if _, bin := binaryOther(d, other.Not()); bin {
				total++
				if total > threshold {
					return total
				}
			}
		}
		if total > threshold {
			return total
		}
	}
	return total
}

// buildOcc constructs the per-literal problem-clause occurrence lists the
// scan-based reference needs (the engine no longer maintains them).
func buildOcc(s *Solver) [][]clauseRef {
	occ := make([][]clauseRef, 2*s.nVars+2)
	for _, c := range s.clauses {
		for _, l := range s.ca.lits(c) {
			occ[l] = append(occ[l], c)
		}
	}
	return occ
}

// TestNbTwoMatchesScanOnBinaryFormulas cross-checks the counter-based
// nbTwo against the scan-based reference on random 2-SAT formulas under
// random partial assignments: with only structural binaries present the
// two definitions coincide for every free literal, assigned or not,
// fixpoint or not.
func TestNbTwoMatchesScanOnBinaryFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		n := 6 + rng.Intn(10)
		s := New(DefaultOptions())
		f := randomFormula(rng, n, 5*n, 2)
		s.AddFormula(f)
		if !s.ok {
			continue // level-0 UNSAT while loading; nothing to compare
		}
		occ := buildOcc(s)
		// Random partial assignment (no propagation: the definitions must
		// already agree state-by-state on purely binary databases).
		s.newDecisionLevel()
		for v := 1; v <= n; v++ {
			if rng.Intn(3) == 0 {
				s.enqueue(cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0), refUndef)
			}
		}
		for v := 1; v <= n; v++ {
			if s.assigns[v] != lUndef {
				continue
			}
			for _, l := range [2]cnf.Lit{cnf.PosLit(cnf.Var(v)), cnf.NegLit(cnf.Var(v))} {
				want := nbTwoScan(s, occ, l, s.opt.NbTwoThreshold)
				got := s.nbTwo(l)
				// Both cut off above the threshold, but may overshoot it by
				// different amounts depending on scan order.
				if got != want && (got <= s.opt.NbTwoThreshold || want <= s.opt.NbTwoThreshold) {
					t.Fatalf("iter %d: nbTwo(%v) = %d, scan reference = %d", iter, l, got, want)
				}
			}
		}
	}
}

// TestNbTwoThresholdStops verifies the computation is cut off beyond the
// threshold (100 in the paper, configurable here).
func TestNbTwoThresholdStops(t *testing.T) {
	o := DefaultOptions()
	o.NbTwoThreshold = 3
	s := New(o)
	for v := 2; v <= 20; v++ {
		s.AddClause(cnf.NewClause(1, v))
	}
	got := s.nbTwo(cnf.PosLit(1))
	if got <= 3 || got > 25 {
		t.Fatalf("nb_two = %d, expected just above the threshold", got)
	}
}

// TestChaffDecisionPicksMaxLiteral checks the zChaff-like VSIDS decision.
func TestChaffDecisionPicksMaxLiteral(t *testing.T) {
	s := New(ChaffOptions())
	s.ensureVars(3)
	setChaffAct(s, cnf.NegLit(2), 10)
	setChaffAct(s, cnf.PosLit(3), 7)
	if l := bm(s).pickChaff(); l != cnf.NegLit(2) {
		t.Fatalf("chaff decision = %v, want ¬x2", l)
	}
	s.newDecisionLevel()
	s.enqueue(cnf.NegLit(2), refUndef)
	if l := bm(s).pickChaff(); l != cnf.PosLit(3) {
		t.Fatalf("chaff decision = %v, want x3", l)
	}
}

// TestDecideReturnsUndefWhenAllAssigned confirms the SAT termination
// condition.
func TestDecideReturnsUndefWhenAllAssigned(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(2)
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	s.enqueue(cnf.PosLit(2), refUndef)
	if l := s.decide(); l != cnf.LitUndef {
		t.Fatalf("decide = %v, want undef", l)
	}
}

// TestSkinHistogramDistance checks that decisions on deeper clauses are
// recorded at the right distance.
func TestSkinHistogramDistance(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(6)
	for v := 1; v <= 3; v++ {
		addLearnt(s, cnf.PosLit(cnf.Var(2*v-1)), cnf.PosLit(cnf.Var(2*v)))
	}
	// Satisfy the two clauses nearest the top (vars 3..6 true).
	s.newDecisionLevel()
	for v := 3; v <= 6; v++ {
		s.enqueue(cnf.PosLit(cnf.Var(v)), refUndef)
	}
	bm(s).pickBerkMin()
	if s.stats.Skin.At(2) != 1 {
		t.Fatalf("skin histogram = %v, want f(2) = 1", s.stats.Skin.Counts)
	}
}

// scanMostActiveVar is the paper's global pick written as the plain scan
// over all variables: the first free variable of maximal var_activity,
// i.e. the lowest one on a tie. It is the reference the pick order must match.
func scanMostActiveVar(d *berkminDecider) cnf.Var {
	var best cnf.Var
	bestAct := int64(-1)
	for v := cnf.Var(1); int(v) <= d.s.nVars; v++ {
		if d.s.assigns[v] == lUndef && d.varAct[v] > bestAct {
			best, bestAct = v, d.varAct[v]
		}
	}
	return best
}

// scanChaffLit is the reference Chaff pick: the first free literal of
// maximal chaffAct, scanning x before ¬x for each variable in order.
func scanChaffLit(d *berkminDecider) cnf.Lit {
	best := cnf.LitUndef
	bestAct := int64(-1)
	for v := cnf.Var(1); int(v) <= d.s.nVars; v++ {
		if d.s.assigns[v] != lUndef {
			continue
		}
		for _, l := range [2]cnf.Lit{cnf.PosLit(v), cnf.NegLit(v)} {
			if d.chaffAct[l] > bestAct {
				best, bestAct = l, d.chaffAct[l]
			}
		}
	}
	return best
}

// scanPick is the reference pick of the current decision mode, as a
// literal (the positive one for a variable pick).
func scanPick(d *berkminDecider) cnf.Lit {
	if d.s.opt.Decision == DecideChaffLiteral {
		return scanChaffLit(d)
	}
	if v := scanMostActiveVar(d); v != 0 {
		return cnf.PosLit(v)
	}
	return cnf.LitUndef
}

// orderPick returns what the active pick order would decide on now and
// leaves the search state as it found it: a pick consumes its answer, so
// the answer is put back (the assigned entries it popped on the way are
// re-inserted by onUnassign when they are unassigned, as in a real search),
// and the decision counter is restored.
func orderPick(d *berkminDecider) cnf.Lit {
	defer func(n uint64) { d.s.stats.GlobalDecisions = n }(d.s.stats.GlobalDecisions)
	if d.s.opt.Decision == DecideChaffLiteral {
		l := d.pickChaff()
		if l != cnf.LitUndef {
			d.litOrder.unassigned(l)
		}
		return l
	}
	v := d.mostActiveFreeVar()
	if v == 0 {
		return cnf.LitUndef
	}
	d.order.unassigned(v)
	return cnf.PosLit(v)
}

// TestHeapPickMatchesScan drives random sequences of bumps, aging steps
// (with a small divisor, so they merge counters into ties), assignments,
// backtracks, Reset, Clone and Reconfigure between the three legacy
// decision modes, and checks after every step that the active pick order
// picks exactly what the reference scan picks.
func TestHeapPickMatchesScan(t *testing.T) {
	presets := []func() Options{DefaultOptions, LessMobilityOptions, ChaffOptions}
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 100; iter++ {
		const n = 24
		// Runs differ in how often they bump: a run that rarely bumps keeps
		// most counters at zero, so its picks come from the cursor.
		bumpRate := rng.Intn(8)
		s := New(presets[rng.Intn(len(presets))]())
		s.ensureVars(n)
		randLits := func() []cnf.Lit {
			lits := make([]cnf.Lit, 1+rng.Intn(4))
			for i := range lits {
				lits[i] = cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0)
			}
			return lits
		}
		for step := 0; step < 300; step++ {
			d := bm(s)
			switch op := rng.Intn(20); {
			case op < bumpRate:
				lits := randLits()
				d.onAntecedent(lits)
				d.onLearnt(lits, len(lits))
			case op < 10:
				s.opt.AgingDivisor = int64(2 + rng.Intn(3))
				d.decay()
			case op < 15:
				var free []cnf.Var
				for v := cnf.Var(1); v <= n; v++ {
					if s.assigns[v] == lUndef {
						free = append(free, v)
					}
				}
				if len(free) > 0 {
					v := free[rng.Intn(len(free))]
					s.newDecisionLevel()
					s.enqueue(cnf.MkLit(v, rng.Intn(2) == 0), refUndef)
				}
			case op < 17:
				s.cancelUntil(rng.Intn(s.decisionLevel() + 1))
			case op == 17:
				s.Reset()
			case op == 18:
				s = s.Clone()
			default:
				s.cancelUntil(0)
				opt := presets[rng.Intn(len(presets))]()
				opt.AgingDivisor = s.opt.AgingDivisor
				s.Reconfigure(opt)
			}
			d = bm(s)
			if got, want := orderPick(d), scanPick(d); got != want {
				t.Fatalf("iter %d step %d (decision %v): order picks %v, scan picks %v",
					iter, step, s.opt.Decision, got, want)
			}
		}
	}
}

// TestPickOrderCursorAfterAging: a variable the zero-counter cursor passed
// while it was assigned, then bumped, unassigned and aged back to zero,
// must be picked again, ahead of the variable the cursor stopped at.
func TestPickOrderCursorAfterAging(t *testing.T) {
	s := New(DefaultOptions())
	s.ensureVars(3)
	d := bm(s)
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	if got := orderPick(d); got != cnf.PosLit(2) {
		t.Fatalf("pick with x1 assigned = %v, want x2", got)
	}
	d.onAntecedent([]cnf.Lit{cnf.PosLit(1)})
	s.cancelUntil(0)
	s.opt.AgingDivisor = 2
	d.decay()
	if got, want := orderPick(d), scanPick(d); got != want || want != cnf.PosLit(1) {
		t.Fatalf("pick after aging = %v, scan picks %v, want x1", got, want)
	}
}

// TestPhaseColdStartFallsBackToNbTwo: a variable that has never been
// assigned has no saved phase, so a phase-saving decision must fall back
// to the paper's §7 nb_two cost function. Binary clauses (1∨2) and (1∨3)
// give nb_two(x1) > nb_two(¬x1), so the cold-start decision sets x1 to 0.
func TestPhaseColdStartFallsBackToNbTwo(t *testing.T) {
	o := DefaultOptions()
	o.PhaseSaving = true
	s := New(o)
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(1, 3))
	setVarAct(s, 1, 100) // make x1 the global pick
	if got := s.decide(); got != cnf.NegLit(1) {
		t.Fatalf("cold-start decision = %v, want %v (nb_two fallback)", got, cnf.NegLit(1))
	}
}

// TestPhaseSavingRepicksAfterRestart: once a variable has been assigned,
// a restart must not forget its polarity — the next decision on it
// re-picks the saved phase, overriding what nb_two would choose.
func TestPhaseSavingRepicksAfterRestart(t *testing.T) {
	o := DefaultOptions()
	o.PhaseSaving = true
	s := New(o)
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(1, 3))
	setVarAct(s, 1, 100)
	// Assign x1 = true — the opposite of the nb_two cold-start choice — so
	// the re-pick below can only come from the saved phase.
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(1), refUndef)
	if s.propagate() != refUndef {
		t.Fatal("unexpected conflict")
	}
	s.restart() // backtracks to level 0, saving phases on the way down
	if s.value(cnf.PosLit(1)) != lUndef {
		t.Fatal("restart left x1 assigned")
	}
	if got := s.decide(); got != cnf.PosLit(1) {
		t.Fatalf("post-restart decision = %v, want saved phase %v", got, cnf.PosLit(1))
	}
	// The same state without phase saving keeps the nb_two choice. The
	// pick above took x1 out of the pick order without assigning it; put
	// it back.
	bm(s).onUnassign(1)
	s.opt.PhaseSaving = false
	if got := s.decide(); got != cnf.NegLit(1) {
		t.Fatalf("phase saving off: decision = %v, want %v", got, cnf.NegLit(1))
	}
}

// TestPhaseSavingTopClauseDecision: saved phases also override the
// lit-activity polarity for decisions made on the current top clause.
func TestPhaseSavingTopClauseDecision(t *testing.T) {
	o := DefaultOptions()
	o.PhaseSaving = true
	s := New(o)
	s.AddClause(cnf.NewClause(1, 2, 3))
	// An unsatisfied learnt clause makes (x4 ∨ x5) the current top clause.
	c := mkLearnt(s, 4, 2, 0)
	setVarAct(s, 4, 50)
	// Saved phase: x4 was last false.
	s.phase[4] = lFalse
	if top, _ := s.currentTopClause(); top != c {
		t.Fatalf("top clause = %d, want %d", top, c)
	}
	if got := s.decide(); got != cnf.NegLit(4) {
		t.Fatalf("top-clause decision = %v, want saved phase %v", got, cnf.NegLit(4))
	}
}

// TestWideInputSolvesFast: a formula that declares many variables and
// constrains one (`p cnf 100000 1` / `1 0`, 19 bytes of DIMACS) costs a
// heap pop or a cursor step per decision under every preset. A pick that
// scanned every variable would make the descent quadratic — about 15s on a
// 2-vCPU x86-64 box — and run into the budget, which leaves the solve
// Unknown.
func TestWideInputSolvesFast(t *testing.T) {
	const n = 100000
	presets := map[string]func() Options{
		"default":          DefaultOptions,
		"less-sensitivity": LessSensitivityOptions,
		"less-mobility":    LessMobilityOptions,
		"limited-keeping":  LimitedKeepingOptions,
		"chaff":            ChaffOptions,
		"limmat":           LimmatOptions,
		"tiered":           TieredOptions,
		"evsids":           EvsidsOptions,
		"lrb":              LrbOptions,
		"modern":           ModernOptions,
	}
	f := cnf.New(n).Add(cnf.NewClause(1))
	for name, preset := range presets {
		t.Run(name, func(t *testing.T) {
			opt := preset()
			opt.MaxTime = 5 * time.Second
			s := New(opt)
			s.AddFormula(f)
			r := s.Solve()
			if r.Status != StatusSat {
				t.Fatalf("status = %v (stop %v) after %v", r.Status, r.Stop, r.Stats.Runtime)
			}
			if len(r.Model) != n+1 || !r.Model[1] {
				t.Fatal("model does not set x1")
			}
		})
	}
}
