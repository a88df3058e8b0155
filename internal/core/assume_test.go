package core

import (
	"math/rand"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/dpll"
)

func TestSolveAssumingBasic(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	// Assuming ¬x1 forces x2.
	r := s.SolveAssuming([]cnf.Lit{cnf.NegLit(1)})
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Model[1] || !r.Model[2] {
		t.Fatalf("model = %v", r.Model)
	}
	// The solver is reusable: contradictory assumptions fail without
	// poisoning the instance.
	r = s.SolveAssuming([]cnf.Lit{cnf.NegLit(1), cnf.NegLit(2)})
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if len(r.FailedAssumptions) == 0 {
		t.Fatal("failed assumptions not reported")
	}
	// And without assumptions it is still satisfiable.
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestSolveAssumingDirectlyContradictory(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(1), cnf.NegLit(1)})
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
}

func TestSolveAssumingFailedSubset(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(-1, -2)) // x1 ∧ x2 impossible
	s.AddClause(cnf.NewClause(3, 4))   // independent noise
	r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(3), cnf.PosLit(1), cnf.PosLit(2)})
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	// The failed set must be a subset of the assumptions containing the
	// real culprits x1, x2 and excluding the innocent x3.
	got := map[cnf.Lit]bool{}
	for _, l := range r.FailedAssumptions {
		got[l] = true
	}
	if !got[cnf.PosLit(1)] || !got[cnf.PosLit(2)] {
		t.Fatalf("failed = %v, want x1 and x2", r.FailedAssumptions)
	}
	if got[cnf.PosLit(3)] {
		t.Fatalf("failed = %v must not include x3", r.FailedAssumptions)
	}
}

func TestSolveAssumingGloballyUnsat(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1))
	s.AddClause(cnf.NewClause(-1))
	r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(2)})
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	if len(r.FailedAssumptions) != 0 {
		t.Fatalf("globally unsat must report no failed assumptions, got %v", r.FailedAssumptions)
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("step 1: %v", r.Status)
	}
	s.AddClause(cnf.NewClause(-1))
	r := s.Solve()
	if r.Status != StatusSat || r.Model[1] || !r.Model[2] {
		t.Fatalf("step 2: %v %v", r.Status, r.Model)
	}
	s.AddClause(cnf.NewClause(-2))
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("step 3: %v", r.Status)
	}
	// Once UNSAT, always UNSAT.
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatal("unsat must persist")
	}
}

func TestIncrementalKeepsLearntClauses(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(pigeonhole(5))
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatal("pigeonhole must be unsat")
	}
	// A second call answers immediately from the poisoned state.
	r := s.Solve()
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
}

// TestAssumptionsAgainstOracle cross-validates SolveAssuming against the
// oracle on formula ∧ assumptions.
func TestAssumptionsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(8)
		f := randomFormula(rng, n, 3*n, 3)
		k := 1 + rng.Intn(3)
		seenVar := map[cnf.Var]bool{}
		var assumps []cnf.Lit
		for len(assumps) < k {
			v := cnf.Var(1 + rng.Intn(n))
			if seenVar[v] {
				continue
			}
			seenVar[v] = true
			assumps = append(assumps, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		// Oracle: formula plus assumption units.
		g := f.Clone()
		for _, a := range assumps {
			g.Add(cnf.Clause{a})
		}
		want := dpll.BruteForce(g)

		s := New(DefaultOptions())
		s.AddFormula(f)
		r := s.SolveAssuming(assumps)
		if (r.Status == StatusSat) != want.Sat {
			t.Fatalf("iter %d: got %v, oracle sat=%v (assumps %v)\n%v",
				iter, r.Status, want.Sat, assumps, f.Clauses)
		}
		if r.Status == StatusSat {
			if !cnf.Assignment(r.Model).Satisfies(g) {
				t.Fatalf("iter %d: model violates formula or assumptions", iter)
			}
		} else if len(r.FailedAssumptions) > 0 {
			// The failed subset must itself be inconsistent with f.
			h := f.Clone()
			for _, a := range r.FailedAssumptions {
				h.Add(cnf.Clause{a})
			}
			if dpll.BruteForce(h).Sat {
				t.Fatalf("iter %d: reported failed set %v is actually consistent",
					iter, r.FailedAssumptions)
			}
		}
		// The solver must remain reusable and agree without assumptions.
		base := dpll.BruteForce(f)
		r2 := s.Solve()
		if (r2.Status == StatusSat) != base.Sat {
			t.Fatalf("iter %d: post-assumption solve diverged", iter)
		}
	}
}

// TestAssumptionsAcrossConfigs: every preset must handle assumptions.
func TestAssumptionsAcrossConfigs(t *testing.T) {
	presets := []func() Options{
		DefaultOptions, ChaffOptions, LimmatOptions,
		LessSensitivityOptions, LessMobilityOptions, LimitedKeepingOptions,
	}
	for i, preset := range presets {
		s := New(preset())
		s.AddClause(cnf.NewClause(-1, -2))
		s.AddClause(cnf.NewClause(2, 3))
		if r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(2)}); r.Status != StatusUnsat {
			t.Fatalf("preset %d: %v", i, r.Status)
		}
		if r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(1)}); r.Status != StatusSat {
			t.Fatalf("preset %d follow-up: %v", i, r.Status)
		}
	}
}

// TestIncrementalAgainstOracle adds clauses in waves, solving between
// waves.
func TestIncrementalAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for iter := 0; iter < 80; iter++ {
		n := 4 + rng.Intn(6)
		s := New(DefaultOptions())
		f := cnf.New(n)
		dead := false
		for wave := 0; wave < 4; wave++ {
			for i := 0; i < n; i++ {
				k := 1 + rng.Intn(3)
				c := make(cnf.Clause, 0, k)
				for j := 0; j < k; j++ {
					v := cnf.Var(1 + rng.Intn(n))
					c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
				}
				f.Add(c)
				s.AddClause(c)
			}
			want := dpll.BruteForce(f)
			r := s.Solve()
			if (r.Status == StatusSat) != want.Sat {
				t.Fatalf("iter %d wave %d: got %v, oracle sat=%v", iter, wave, r.Status, want.Sat)
			}
			if !want.Sat {
				dead = true
				break
			}
		}
		_ = dead
	}
}

// TestSolveAssumingDuplicateAssumptions: repeating an assumption must not
// confuse the per-level assumption indexing (a satisfied assumption gets a
// dummy decision level) or the answer.
func TestSolveAssumingDuplicateAssumptions(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(-1, 3))
	r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(1)})
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if !r.Model[1] || !r.Model[2] || !r.Model[3] {
		t.Fatalf("model %v does not honor the assumptions", r.Model)
	}
	// Duplicated contradictory assumptions still fail cleanly.
	r = s.SolveAssuming([]cnf.Lit{cnf.PosLit(1), cnf.PosLit(1), cnf.NegLit(1)})
	if r.Status != StatusUnsat {
		t.Fatalf("x ∧ x ∧ ¬x: %v", r.Status)
	}
	assertFailedSubset(t, r, []cnf.Lit{cnf.PosLit(1), cnf.NegLit(1)})
}

// assertFailedSubset checks FailedAssumptions ⊆ given and non-empty.
func assertFailedSubset(t *testing.T, r Result, given []cnf.Lit) {
	t.Helper()
	if len(r.FailedAssumptions) == 0 {
		t.Fatal("assumption-caused UNSAT reported no failed assumptions")
	}
	allowed := map[cnf.Lit]bool{}
	for _, l := range given {
		allowed[l] = true
	}
	for _, l := range r.FailedAssumptions {
		if !allowed[l] {
			t.Fatalf("failed assumption %v is not among the given assumptions %v", l, given)
		}
	}
}

// TestSolveAssumingContradictoryPairSubset: assuming x and ¬x must fail
// with a subset of exactly those assumptions.
func TestSolveAssumingContradictoryPairSubset(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(2, 3))
	given := []cnf.Lit{cnf.PosLit(3), cnf.PosLit(1), cnf.NegLit(1)}
	r := s.SolveAssuming(given)
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	assertFailedSubset(t, r, given)
}

// TestFailedAssumptionsSubsetAfterIncremental pins the ISSUE-3 edge case:
// after a prior incremental call has left learnt clauses and level-0 facts
// behind, a failing SolveAssuming must still report only given assumptions
// (never internal literals reached through old antecedents).
func TestFailedAssumptionsSubsetAfterIncremental(t *testing.T) {
	s := New(DefaultOptions())
	s.AddFormula(pigeonhole(4))
	// Shift the pigeonhole away from vars 1..3 — add fresh structure.
	n := s.NumVars()
	a := cnf.Var(n + 1)
	b := cnf.Var(n + 2)
	c := cnf.Var(n + 3)
	s.AddClause(cnf.Clause{cnf.PosLit(a), cnf.PosLit(b)})
	s.AddClause(cnf.Clause{cnf.NegLit(b), cnf.PosLit(c)})
	// Prior incremental call: a budgeted run over the UNSAT core leaves
	// learnt clauses behind without finishing.
	s.opt.MaxConflicts = 10
	if r := s.Solve(); r.Stop != StopConflicts {
		t.Fatalf("budgeted call: stop=%v", r.Stop)
	}
	s.opt.MaxConflicts = 0
	given := []cnf.Lit{cnf.NegLit(a), cnf.NegLit(b)}
	r := s.SolveAssuming(given)
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	// The formula is globally UNSAT (pigeonhole), so either an empty set
	// (refuted without the assumptions) or a subset of the given
	// assumptions is acceptable — anything else is a leak.
	if len(r.FailedAssumptions) > 0 {
		assertFailedSubset(t, r, given)
	}
}

// TestFailedAssumptionsSubsetAfterIncrementalSat is the satisfiable-core
// variant: the base formula stays SAT, so the failure must come from — and
// name only — the assumptions.
func TestFailedAssumptionsSubsetAfterIncrementalSat(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	s.AddClause(cnf.NewClause(-2, 3))
	s.AddClause(cnf.NewClause(-3, 4))
	if r := s.Solve(); r.Status != StatusSat {
		t.Fatalf("base: %v", r.Status)
	}
	s.AddClause(cnf.NewClause(-1, -4))
	given := []cnf.Lit{cnf.PosLit(1), cnf.PosLit(2)}
	r := s.SolveAssuming(given)
	if r.Status != StatusUnsat {
		t.Fatalf("status = %v", r.Status)
	}
	assertFailedSubset(t, r, given)
}

// TestSolveAssumingUnknownVariable: assuming on a variable no clause has
// ever mentioned must not crash — the variable is free and the assumption
// simply fixes it.
func TestSolveAssumingUnknownVariable(t *testing.T) {
	s := New(DefaultOptions())
	s.AddClause(cnf.NewClause(1, 2))
	r := s.SolveAssuming([]cnf.Lit{cnf.PosLit(5)})
	if r.Status != StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	if len(r.Model) <= 5 || !r.Model[5] {
		t.Fatalf("model %v does not honor the assumption on the fresh variable", r.Model)
	}
	// Contradicting it afterwards fails on the assumptions alone.
	r = s.SolveAssuming([]cnf.Lit{cnf.PosLit(5), cnf.NegLit(5)})
	if r.Status != StatusUnsat {
		t.Fatalf("x5 ∧ ¬x5: %v", r.Status)
	}
	assertFailedSubset(t, r, []cnf.Lit{cnf.PosLit(5), cnf.NegLit(5)})
}
