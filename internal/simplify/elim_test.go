package simplify

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// instruments returns the formulas the repository's benchmark preprocesses:
// the five medium Table-3 instruments (bench.HardInstances(Medium)) and the
// medium query-stream instance (bench.QueryStreamInstance(Medium)), built
// from the generators directly because package bench imports this one.
func instruments() []gen.Instance {
	return []gen.Instance{
		gen.MiterUnsat(12, 60, 81),
		gen.Hanoi(5),
		gen.BuggyAdderMiter(8, 71),
		gen.PipeUnsat(4, 5, 51),
		gen.VliwSat(4, 8, 61),
		gen.Blocksworld(5, 0, 2),
	}
}

// clauseListHash is the 64-bit FNV-1a hash of the clause list in order,
// each literal as 4 little-endian bytes and each clause closed by a zero.
func clauseListHash(clauses []cnf.Clause) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range clauses {
		for _, l := range c {
			binary.LittleEndian.PutUint32(b[:], uint32(l))
			h.Write(b[:])
		}
		h.Write([]byte{0, 0, 0, 0})
	}
	return h.Sum64()
}

// elimHash hashes the reconstruction record: each eliminated variable as
// a unit clause followed by the clauses kept for it.
func elimHash(elims []Elim) uint64 {
	var rec []cnf.Clause
	for _, e := range elims {
		rec = append(rec, cnf.Clause{cnf.PosLit(e.V)})
		rec = append(rec, e.Clauses...)
	}
	return clauseListHash(rec)
}

// TestRunOutputPinned pins simplify.Run's output on the benchmark's
// formulas under the default options, clause for clause. The figures were
// recorded with the elimination pass that built every resolvent before
// counting them; the counting pass must leave them unchanged.
func TestRunOutputPinned(t *testing.T) {
	pins := []struct {
		name                  string
		clauses, lits, elimed int
		hash, elims           uint64
	}{
		{"miter12_60_81", 151, 406, 201, 0x26b6b79826a49986, 0x409baf84bf3059bf},
		{"hanoi5", 9669, 21716, 435, 0x5ac84740bf26819b, 0x9a40f88c68e69994},
		{"addbug8_71", 371, 1356, 58, 0x99af92c1f2873c2f, 0x2934526a7e48e199},
		{"4pipe_w5", 1293, 4159, 508, 0x3d8350353754ad2, 0x34599a2ab06bfcae},
		{"4vliw_w8_61", 1900, 6408, 638, 0x82d109ac31fb41f4, 0x70a802280af47d4c},
		{"bw5_10_2", 7445, 16778, 485, 0x6094b0f0019cde38, 0x207aa1eaa04f28bd},
	}
	for i, inst := range instruments() {
		want := pins[i]
		if inst.Name != want.name {
			t.Fatalf("instrument %d is %s, pinned %s", i, inst.Name, want.name)
		}
		o, _, _ := Run(inst.Formula, DefaultOptions(), 0, nil)
		lits := 0
		for _, c := range o.Formula.Clauses {
			lits += len(c)
		}
		got := [5]uint64{uint64(len(o.Formula.Clauses)), uint64(lits), uint64(o.EliminatedVars),
			clauseListHash(o.Formula.Clauses), elimHash(o.Elims)}
		if got != [5]uint64{uint64(want.clauses), uint64(want.lits), uint64(want.elimed), want.hash, want.elims} {
			t.Errorf("%s: clauses %d, literals %d, eliminated %d, hash %#x, elim hash %#x; pinned %+v",
				inst.Name, got[0], got[1], got[2], got[3], got[4], want)
		}
	}
}

// referenceResolve is the resolvent builder the elimination pass used
// before it counted first: (nil, false) when a side is satisfied (nil),
// (_, true) for a tautology, else the normalized resolvent.
func referenceResolve(a, b cnf.Clause, v cnf.Var) (cnf.Clause, bool) {
	if a == nil || b == nil {
		return nil, false
	}
	out := make(cnf.Clause, 0, len(a)+len(b)-2)
	for _, l := range a {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range b {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	norm, taut := out.Normalize()
	if taut {
		return nil, true
	}
	return norm, false
}

// referenceEliminate is the old build-everything-then-count loop: every
// pair's current literals recomputed, every non-tautological resolvent
// built, stopping at the first satisfied clause (postpone) or empty
// resolvent (contradiction).
func referenceEliminate(s *simplifier, v cnf.Var, pos, neg []*workClause) (resolvents []cnf.Clause, postponed, contradiction bool) {
	for _, p := range pos {
		for _, n := range neg {
			r, taut := referenceResolve(s.currentLits(p), s.currentLits(n), v)
			if taut {
				continue
			}
			if r == nil {
				return resolvents, true, false
			}
			if len(r) == 0 {
				return resolvents, false, true
			}
			resolvents = append(resolvents, r)
		}
	}
	return resolvents, false, false
}

// elimTally counts the outcomes the differential check has seen.
type elimTally struct{ candidates, postponed, contradictions, bounded, unbounded int }

// checkCandidate compares the counting path with the reference on one
// candidate variable: the same stop, the exact count, a count cut at one
// past the real limit, and for a bounded variable the same resolvents in
// the same order.
func checkCandidate(t *testing.T, s *simplifier, v cnf.Var, pos, neg []*workClause, tally *elimTally) {
	t.Helper()
	want, postponed, contradiction := referenceEliminate(s, v, pos, neg)
	cur := s.currentOcc(pos, neg)
	curPos, curNeg := cur[:len(pos)], cur[len(pos):]
	bound := len(pos) + len(neg) + s.opt.MaxGrowth
	n, stop := s.countResolvents(v, curPos, curNeg, bound)
	exact, exactStop := s.countResolvents(v, curPos, curNeg, math.MaxInt)
	tally.candidates++
	if exactStop != stop || (stop == stopSatisfied) != postponed || (stop == stopEmpty) != contradiction {
		t.Fatalf("x%d: stop %d (exact %d), reference postponed=%v contradiction=%v", v, stop, exactStop, postponed, contradiction)
	}
	switch {
	case postponed:
		tally.postponed++
		return
	case contradiction:
		tally.contradictions++
		return
	}
	if exact != len(want) {
		t.Fatalf("x%d: counted %d resolvents, reference built %d", v, exact, len(want))
	}
	if min(exact, bound+1) != n {
		t.Fatalf("x%d: counted %d under limit %d, exact count %d", v, n, bound, exact)
	}
	if n > bound {
		tally.unbounded++
		return
	}
	tally.bounded++
	got := s.buildResolvents(v, curPos, curNeg, n)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("x%d: built %v, reference %v", v, got, want)
	}
}

// TestCountingMatchesReferenceOnInstruments checks every candidate
// variable the elimination pass meets on the benchmark's formulas, in the
// state the pass sees it, and that the hooked run emits what Run does.
func TestCountingMatchesReferenceOnInstruments(t *testing.T) {
	for _, inst := range instruments() {
		var tally elimTally
		s := newSimplifier(inst.Formula.NumVars, DefaultOptions())
		s.debugElim = func(v cnf.Var, pos, neg []*workClause) {
			checkCandidate(t, s, v, pos, neg, &tally)
		}
		o := s.run(inst.Formula)
		plain := Simplify(inst.Formula, DefaultOptions())
		if clauseListHash(o.Formula.Clauses) != clauseListHash(plain.Formula.Clauses) {
			t.Fatalf("%s: the hooked run emitted a different formula", inst.Name)
		}
		if tally.bounded == 0 || tally.unbounded == 0 {
			t.Fatalf("%s: tally %+v misses a verdict", inst.Name, tally)
		}
		t.Logf("%s: %+v", inst.Name, tally)
	}
}

// TestCountingMatchesReferenceRandom runs the differential check two ways
// on random formulas: inside real simplification runs under varied growth
// and occurrence bounds, and on hand-made states where some variables are
// fixed without propagation, which is what produces satisfied occurrences
// and (v)/(¬v) pairs whose resolvent is empty.
func TestCountingMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randomClauses := func(n, m int) []cnf.Clause {
		var out []cnf.Clause
		for len(out) < m {
			c := make(cnf.Clause, 2+rng.Intn(3))
			for i := range c {
				c[i] = cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Intn(2) == 0)
			}
			if norm, taut := c.Normalize(); !taut {
				out = append(out, norm)
			}
		}
		return out
	}
	var run, direct elimTally
	for iter := 0; iter < 300; iter++ {
		n := 8 + rng.Intn(30)
		f := cnf.New(n)
		for _, c := range randomClauses(n, 2*n+rng.Intn(3*n)) {
			f.Add(c)
		}
		if rng.Intn(3) == 0 {
			f.Add(cnf.Clause{cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Intn(2) == 0)})
		}
		opt := DefaultOptions()
		opt.MaxGrowth = rng.Intn(5)
		opt.MaxOccurrences = 8 + rng.Intn(24)
		s := newSimplifier(n, opt)
		s.debugElim = func(v cnf.Var, pos, neg []*workClause) {
			checkCandidate(t, s, v, pos, neg, &run)
		}
		s.run(f)

		s = newSimplifier(n, opt)
		for _, c := range randomClauses(n, 3*n) {
			s.addClause(c)
		}
		for v := 1; v <= n; v++ {
			if rng.Intn(4) == 0 {
				s.assign[v] = int8(2*rng.Intn(2) - 1)
			}
		}
		for v := cnf.Var(1); int(v) <= n; v++ {
			if s.assign[v] != 0 {
				continue
			}
			pos := s.liveOcc(nil, cnf.PosLit(v))
			neg := s.liveOcc(nil, cnf.NegLit(v))
			if len(pos) > 0 && len(neg) > 0 {
				checkCandidate(t, s, v, pos, neg, &direct)
			}
		}
	}
	if run.bounded == 0 || run.unbounded == 0 {
		t.Fatalf("simplification runs: tally %+v misses a verdict", run)
	}
	if direct.postponed == 0 || direct.contradictions == 0 || direct.bounded == 0 || direct.unbounded == 0 {
		t.Fatalf("direct states: tally %+v misses an outcome", direct)
	}
	t.Logf("runs %+v, direct %+v", run, direct)
}
