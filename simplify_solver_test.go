package berkmin_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"berkmin"
)

// defaultSimplify is shorthand for enabling preprocessing on a solver.
func defaultSimplify(s *berkmin.Solver) {
	so := berkmin.DefaultSimplifyOptions()
	s.SetSimplify(&so)
}

// TestSetSimplifyMatchesPlainVerdicts is the gen-suite differential test:
// the integrated preprocessing path must answer exactly like the plain
// engine on every generator family (models are verified against the
// original formula inside Solve).
func TestSetSimplifyMatchesPlainVerdicts(t *testing.T) {
	instances := []berkmin.Instance{
		berkmin.Pigeonhole(5),
		berkmin.Queens(6),
		berkmin.Parity(16, 12, 3),
		berkmin.Blocksworld(3, 5, 3),
		berkmin.MiterUnsat(8, 20, 7),
		berkmin.MiterSat(8, 20, 7),
		berkmin.AdderMiter(4, 0),
		berkmin.GraphColoring(14, 3, 0.3, true, 7),
		berkmin.TseitinGraph(3, true, 7),
		berkmin.RandomKSat(40, 160, 3, 7),
	}
	for _, inst := range instances {
		plain := berkmin.New()
		plain.AddFormula(inst.Formula)
		want := plain.Solve().Status

		simp := berkmin.New()
		defaultSimplify(simp)
		simp.AddFormula(inst.Formula)
		got := simp.Solve().Status

		if got != want {
			t.Fatalf("%s: simplify=%v plain=%v", inst.Name, got, want)
		}
		if o := simp.SimplifyOutcome(); o == nil {
			t.Fatalf("%s: SimplifyOutcome is nil after a simplified solve", inst.Name)
		}
	}
}

// TestSetSimplifyProofVerifies checks DRUP continuity: the preprocessor's
// trace followed by the solver's must verify against the original formula.
func TestSetSimplifyProofVerifies(t *testing.T) {
	for _, inst := range []berkmin.Instance{
		berkmin.Pigeonhole(5),
		berkmin.AdderMiter(4, 0),
		berkmin.TseitinGraph(3, true, 7),
	} {
		var proof bytes.Buffer
		s := berkmin.New()
		s.SetProofWriter(&proof)
		defaultSimplify(s)
		s.AddFormula(inst.Formula)
		if r := s.Solve(); r.Status != berkmin.StatusUnsat {
			t.Fatalf("%s: status = %v, want UNSAT", inst.Name, r.Status)
		}
		res, err := berkmin.CheckDRUP(inst.Formula, &proof)
		if err != nil {
			t.Fatalf("%s: proof rejected: %v", inst.Name, err)
		}
		if !res.EmptyDerived {
			t.Fatalf("%s: empty clause not derived", inst.Name)
		}
		if res.UnknownDeletions != 0 {
			t.Fatalf("%s: %d unmatched deletion lines", inst.Name, res.UnknownDeletions)
		}
	}
}

// TestSetSimplifyRestoresEliminatedAssumption: assuming on a variable that
// preprocessing eliminated must transparently restore its clauses —
// otherwise the assumption would be vacuous and the answer wrong.
func TestSetSimplifyRestoresEliminatedAssumption(t *testing.T) {
	s := berkmin.New()
	defaultSimplify(s)
	// x1 occurs twice: elimination resolves (1 2)(−1 3) into (2 3) and
	// drops x1; x2 then goes pure. Assuming ¬1 ∧ ¬2 falsifies (1 2).
	s.AddClause(1, 2)
	s.AddClause(-1, 3)
	if r := s.Solve(); r.Status != berkmin.StatusSat {
		t.Fatalf("base solve: %v", r.Status)
	}
	r := s.SolveAssuming(-1, -2)
	if r.Status != berkmin.StatusUnsat {
		t.Fatalf("assuming -1,-2: %v, want UNSAT (eliminated clauses not restored?)", r.Status)
	}
	for _, a := range berkmin.FailedAssumptions(r) {
		if a != -1 && a != -2 {
			t.Fatalf("failed assumption %d not among the given assumptions", a)
		}
	}
	// And the still-satisfiable direction keeps working.
	if r := s.SolveAssuming(-1, 2); r.Status != berkmin.StatusSat {
		t.Fatalf("assuming -1,2: %v, want SAT", r.Status)
	}
}

// TestSetSimplifyRestoresEliminatedOnAddClause: a clause added after
// preprocessing that mentions eliminated variables must bring their
// original clauses back before it constrains anything.
func TestSetSimplifyRestoresEliminatedOnAddClause(t *testing.T) {
	s := berkmin.New()
	defaultSimplify(s)
	s.AddClause(1, 2)
	s.AddClause(-1, 3)
	if r := s.Solve(); r.Status != berkmin.StatusSat {
		t.Fatalf("base solve: %v", r.Status)
	}
	// Constrain the eliminated x1 and the pure x2 from outside.
	s.AddClause(-1)
	s.AddClause(-2)
	r := s.Solve()
	// Original: (1 2)(¬1 3)(¬1)(¬2) — x1 and x2 false forces (1 2) false.
	if r.Status != berkmin.StatusUnsat {
		t.Fatalf("after adding (-1)(-2): %v, want UNSAT", r.Status)
	}
}

// TestSetSimplifyUnsatByPreprocessingAlone: when the preprocessor refutes
// the formula on its own, the integrated solver must report UNSAT without
// searching.
func TestSetSimplifyUnsatByPreprocessingAlone(t *testing.T) {
	s := berkmin.New()
	defaultSimplify(s)
	s.AddClause(1)
	s.AddClause(-1, 2)
	s.AddClause(-2, -1)
	if r := s.Solve(); r.Status != berkmin.StatusUnsat {
		t.Fatalf("status = %v, want UNSAT", r.Status)
	}
	if o := s.SimplifyOutcome(); o == nil || !o.Unsat {
		t.Fatal("outcome does not record the preprocessing refutation")
	}
}

// TestSolveParallelSimplify runs the portfolio on preprocessed input; the
// winning model must be mapped back and satisfy the original formula.
func TestSolveParallelSimplify(t *testing.T) {
	inst := berkmin.Queens(7)
	res := berkmin.SolveParallel(inst.Formula, berkmin.ParallelOptions{
		Jobs:     3,
		Simplify: true,
	})
	if res.Status != berkmin.StatusSat {
		t.Fatalf("status = %v, want SAT", res.Status)
	}
	if !berkmin.Verify(inst.Formula, res.Model) {
		t.Fatal("portfolio model does not satisfy the original formula")
	}

	unsat := berkmin.Pigeonhole(5)
	res = berkmin.SolveParallel(unsat.Formula, berkmin.ParallelOptions{
		Jobs:     3,
		Simplify: true,
	})
	if res.Status != berkmin.StatusUnsat {
		t.Fatalf("status = %v, want UNSAT", res.Status)
	}
}

// TestSetSimplifyNilDisables: disabling with nil — even after clauses were
// added while enabled — must hand the held-back clauses to the engine and
// solve plainly.
func TestSetSimplifyNilDisables(t *testing.T) {
	s := berkmin.New()
	defaultSimplify(s)
	s.AddClause(1, 2)
	s.AddClause(-1)
	s.SetSimplify(nil)
	r := s.Solve()
	if r.Status != berkmin.StatusSat || r.Model[1] || !r.Model[2] {
		t.Fatalf("status=%v model=%v, want SAT with ¬x1 ∧ x2", r.Status, r.Model)
	}
	if s.SimplifyOutcome() != nil {
		t.Fatal("preprocessing ran although disabled")
	}
	// Disabling when never enabled is a no-op at any time.
	p := berkmin.New()
	p.AddClause(3)
	p.SetSimplify(nil)
	if r := p.Solve(); r.Status != berkmin.StatusSat {
		t.Fatalf("status = %v", r.Status)
	}
	// Toggling before any clause is added must stay legal.
	q := berkmin.New()
	so := berkmin.DefaultSimplifyOptions()
	q.SetSimplify(&so)
	q.SetSimplify(nil)
	q.SetSimplify(&so)
	q.AddClause(1, 2)
	if r := q.Solve(); r.Status != berkmin.StatusSat {
		t.Fatalf("after re-enable: %v", r.Status)
	}
}

// TestSetSimplifyProofWithRestoredClauses: a first-call SolveAssuming on an
// eliminated variable restores its clauses into the engine; learnt clauses
// that resolve through them must still yield a verifying DRUP trace. The
// construction ties the eliminated variable to a pigeonhole variable
// ((x ∨ p) ∧ (¬x ∨ ¬p) resolves to a tautology, so x is eliminated with
// zero resolvents), making the restored clauses antecedents in the
// refutation once x is assumed.
func TestSetSimplifyProofWithRestoredClauses(t *testing.T) {
	inst := berkmin.Pigeonhole(5)
	f := inst.Formula.Clone()
	x := f.NumVars + 1
	f.AddClause(x, 1)
	f.AddClause(-x, -1)

	var proof bytes.Buffer
	s := berkmin.New()
	s.SetProofWriter(&proof)
	defaultSimplify(s)
	s.AddFormula(f)
	r := s.SolveAssuming(x)
	if r.Status != berkmin.StatusUnsat {
		t.Fatalf("status = %v, want UNSAT (pigeonhole core)", r.Status)
	}
	// An assumption-attributed UNSAT leaves the trace without an empty
	// clause; the follow-up global solve completes it. Every learnt line
	// of the first call — including those resolving through the restored
	// clauses — is still RUP-checked along the way.
	if r2 := s.Solve(); r2.Status != berkmin.StatusUnsat {
		t.Fatalf("global solve: %v, want UNSAT", r2.Status)
	}
	res, err := berkmin.CheckDRUP(f, &proof)
	if err != nil {
		t.Fatalf("proof with restored clauses rejected: %v", err)
	}
	if !res.EmptyDerived {
		t.Fatal("empty clause not derived")
	}
	if res.UnknownDeletions != 0 {
		t.Fatalf("%d unmatched deletion lines", res.UnknownDeletions)
	}
}

// TestSetSimplifyRuntimeEndToEnd: the preprocessing time of the first
// simplified solve must show up identically in the returned Result.Stats
// and the Stats() accessor.
func TestSetSimplifyRuntimeEndToEnd(t *testing.T) {
	s := berkmin.New()
	defaultSimplify(s)
	inst := berkmin.Pigeonhole(5)
	s.AddFormula(inst.Formula)
	r := s.Solve()
	if r.Stats.Runtime <= 0 {
		t.Fatal("Runtime not recorded")
	}
	if got := s.Stats().Runtime; got != r.Stats.Runtime {
		t.Fatalf("Stats().Runtime = %v, Result.Stats.Runtime = %v — views disagree", got, r.Stats.Runtime)
	}
}

// TestWideInputSimplifiedSolvesFast solves the 19-byte `p cnf 100000 1` /
// `1 0` the way the serving daemon does: berkmin.New with preprocessing on.
// Simplification settles x1 and leaves 99,999 free variables to decide; at
// one heap pop or cursor step per decision that is well inside the budget.
func TestWideInputSimplifiedSolvesFast(t *testing.T) {
	f, err := berkmin.ReadDimacs(strings.NewReader("p cnf 100000 1\n1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := berkmin.New()
	so := berkmin.DefaultSimplifyOptions()
	s.SetSimplify(&so)
	if err := s.AddFormula(f); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := s.SolveContext(ctx)
	if err != nil || r.Status != berkmin.StatusSat {
		t.Fatalf("status = %v, err = %v", r.Status, err)
	}
	if !r.Model[1] {
		t.Fatal("model does not set x1")
	}
}
