package core

import (
	"math"
	"strings"
	"testing"

	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// branchingInstances is the fixed-seed workload for the branching-plane
// regression table. Small enough to run in a normal `go test`, varied enough
// to exercise every legacy code path (top-clause picks, global picks, chaff
// literal counters, tiered DB interaction).
func branchingInstances() []gen.Instance {
	return []gen.Instance{
		gen.Pigeonhole(5),
		gen.Pigeonhole(6),
		gen.Parity(16, 16, 9),
		gen.Hanoi(3),
		gen.MiterUnsat(10, 40, 81),
		gen.PipeUnsat(2, 3, 51),
	}
}

func branchingConfigs() map[string]Options {
	return map[string]Options{
		"berkmin":          DefaultOptions(),
		"less-mobility":    LessMobilityOptions(),
		"less-sensitivity": LessSensitivityOptions(),
		"chaff":            ChaffOptions(),
		"limmat":           LimmatOptions(),
		"tiered":           TieredOptions(),
		"berkmin-s3":       DefaultOptions(),
		"tiered-s3":        TieredOptions(),
	}
}

// TestBranchingRegressionTable pins the exact verdict AND conflict count of
// every legacy heuristic on a fixed workload. These rows were captured from
// the solver BEFORE the decider-interface refactor; any drift means the
// refactor (or a later change) altered branching behaviour, not just its
// plumbing. Update the table only for a deliberate, documented heuristic
// change.
func TestBranchingRegressionTable(t *testing.T) {
	golden := []struct {
		config    string
		instance  string
		status    Status
		conflicts uint64
	}{
		{"berkmin", "hole5", StatusUnsat, 166},
		{"berkmin", "hole6", StatusUnsat, 609},
		{"berkmin", "par16_9", StatusSat, 1},
		{"berkmin", "hanoi3", StatusSat, 13},
		{"berkmin", "miter10_40_81", StatusUnsat, 32},
		{"berkmin", "2pipe_w3", StatusUnsat, 1333},
		{"less-mobility", "hole5", StatusUnsat, 173},
		{"less-mobility", "hole6", StatusUnsat, 725},
		{"less-mobility", "par16_9", StatusSat, 1},
		{"less-mobility", "hanoi3", StatusSat, 15},
		{"less-mobility", "miter10_40_81", StatusUnsat, 36},
		{"less-mobility", "2pipe_w3", StatusUnsat, 671},
		{"less-sensitivity", "hole5", StatusUnsat, 109},
		{"less-sensitivity", "hole6", StatusUnsat, 387},
		{"less-sensitivity", "par16_9", StatusSat, 1},
		{"less-sensitivity", "hanoi3", StatusSat, 36},
		{"less-sensitivity", "miter10_40_81", StatusUnsat, 44},
		{"less-sensitivity", "2pipe_w3", StatusUnsat, 1102},
		{"chaff", "hole5", StatusUnsat, 93},
		{"chaff", "hole6", StatusUnsat, 254},
		{"chaff", "par16_9", StatusSat, 5},
		{"chaff", "hanoi3", StatusSat, 26},
		{"chaff", "miter10_40_81", StatusUnsat, 41},
		{"chaff", "2pipe_w3", StatusUnsat, 916},
		{"limmat", "hole5", StatusUnsat, 94},
		{"limmat", "hole6", StatusUnsat, 261},
		{"limmat", "par16_9", StatusSat, 5},
		{"limmat", "hanoi3", StatusSat, 26},
		{"limmat", "miter10_40_81", StatusUnsat, 41},
		{"limmat", "2pipe_w3", StatusUnsat, 886},
		{"tiered", "hole5", StatusUnsat, 147},
		{"tiered", "hole6", StatusUnsat, 648},
		{"tiered", "par16_9", StatusSat, 0},
		{"tiered", "hanoi3", StatusSat, 37},
		{"tiered", "miter10_40_81", StatusUnsat, 57},
		{"tiered", "2pipe_w3", StatusUnsat, 774},
		{"berkmin-s3", "hole5", StatusUnsat, 166},
		{"berkmin-s3", "hole6", StatusUnsat, 609},
		{"berkmin-s3", "par16_9", StatusSat, 1},
		{"berkmin-s3", "hanoi3", StatusSat, 13},
		{"berkmin-s3", "miter10_40_81", StatusUnsat, 32},
		{"berkmin-s3", "2pipe_w3", StatusUnsat, 1333},
		{"tiered-s3", "hole5", StatusUnsat, 147},
		{"tiered-s3", "hole6", StatusUnsat, 648},
		{"tiered-s3", "par16_9", StatusSat, 0},
		{"tiered-s3", "hanoi3", StatusSat, 37},
		{"tiered-s3", "miter10_40_81", StatusUnsat, 57},
		{"tiered-s3", "2pipe_w3", StatusUnsat, 774},
	}

	configs := branchingConfigs()
	insts := map[string]gen.Instance{}
	for _, in := range branchingInstances() {
		insts[in.Name] = in
	}
	for _, row := range golden {
		row := row
		t.Run(row.config+"/"+row.instance, func(t *testing.T) {
			t.Parallel()
			in, ok := insts[row.instance]
			if !ok {
				t.Fatalf("unknown instance %q", row.instance)
			}
			opt, ok := configs[row.config]
			if !ok {
				t.Fatalf("unknown config %q", row.config)
			}
			// An -s3 row must find exactly its twin's search: it is built in
			// Chaff mode and switched to the row's options after the formula
			// is loaded, so its variable pick order is armed by Reconfigure.
			var s *Solver
			if strings.HasSuffix(row.config, "-s3") {
				s = New(ChaffOptions())
				s.AddFormula(in.Formula)
				s.Reconfigure(opt)
			} else {
				s = New(opt)
				s.AddFormula(in.Formula)
			}
			r := s.Solve()
			if r.Status != row.status {
				t.Fatalf("status = %v, want %v", r.Status, row.status)
			}
			if r.Stats.Conflicts != row.conflicts {
				t.Fatalf("conflicts = %d, want %d (branching behaviour drifted)",
					r.Stats.Conflicts, row.conflicts)
			}
		})
	}
}

// TestEvsidsLrbSolveGenSuite checks the two new deciders against instances
// with a status known by construction.
func TestEvsidsLrbSolveGenSuite(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"evsids", EvsidsOptions()},
		{"lrb", LrbOptions()},
		{"modern", ModernOptions()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, in := range branchingInstances() {
				s := New(tc.opt)
				s.AddFormula(in.Formula)
				r := s.Solve()
				want := StatusSat
				if in.Expected == gen.ExpUnsat {
					want = StatusUnsat
				}
				if r.Status != want {
					t.Fatalf("%s: status = %v, want %v", in.Name, r.Status, want)
				}
				if r.Status == StatusSat && !cnf.Assignment(r.Model).Satisfies(in.Formula) {
					t.Fatalf("%s: model does not satisfy the formula", in.Name)
				}
				checkInvariants(t, s)
			}
		})
	}
}

// TestNormalizeBranchingParams checks that zero values for the EVSIDS/LRB
// knobs are replaced by sane defaults — a zero VarDecay would otherwise
// divide by zero, a zero LrbAlphaStep would freeze the annealing, and an
// out-of-range locality factor would corrupt activities.
func TestNormalizeBranchingParams(t *testing.T) {
	var o Options
	o.normalize()
	if o.VarDecay <= 0 || o.VarDecay >= 1 {
		t.Fatalf("VarDecay = %v, want in (0,1)", o.VarDecay)
	}
	if o.LrbAlpha <= 0 || o.LrbAlpha > 1 {
		t.Fatalf("LrbAlpha = %v, want in (0,1]", o.LrbAlpha)
	}
	if o.LrbAlphaMin <= 0 || o.LrbAlphaMin > o.LrbAlpha {
		t.Fatalf("LrbAlphaMin = %v, want in (0, LrbAlpha]", o.LrbAlphaMin)
	}
	if o.LrbAlphaStep <= 0 {
		t.Fatalf("LrbAlphaStep = %v, want > 0", o.LrbAlphaStep)
	}
	if o.LrbLocality <= 0 || o.LrbLocality > 1 {
		t.Fatalf("LrbLocality = %v, want in (0,1]", o.LrbLocality)
	}

	// Out-of-range values are rejected, not propagated.
	o = Options{VarDecay: 1.5, LrbAlpha: 7, LrbAlphaMin: -1, LrbAlphaStep: -2, LrbLocality: 3}
	o.normalize()
	if o.VarDecay >= 1 || o.LrbAlpha > 1 || o.LrbAlphaMin > o.LrbAlpha || o.LrbAlphaStep <= 0 || o.LrbLocality > 1 {
		t.Fatalf("out-of-range knobs survived normalize: %+v", o)
	}

	// An alpha floor above alpha is clamped down to alpha.
	o = Options{LrbAlpha: 0.1, LrbAlphaMin: 0.5}
	o.normalize()
	if o.LrbAlphaMin > o.LrbAlpha {
		t.Fatalf("LrbAlphaMin = %v > LrbAlpha = %v after normalize", o.LrbAlphaMin, o.LrbAlpha)
	}
}

// TestEvsidsRescale forces the activity overflow path: once a bump crosses
// 1e100 every activity and the increment are scaled by 1e-100, preserving
// the heap order (uniform scaling is monotone).
func TestEvsidsRescale(t *testing.T) {
	s := New(EvsidsOptions())
	s.ensureVars(3)
	d := s.dec.(*evsidsDecider)
	d.inc = evsidsRescaleLimit / 2
	d.act[1] = evsidsRescaleLimit * 0.9
	d.act[2] = evsidsRescaleLimit * 0.1
	d.bump(1)
	if s.stats.ActivityRescales != 1 {
		t.Fatalf("ActivityRescales = %d, want 1", s.stats.ActivityRescales)
	}
	if d.act[1] >= evsidsRescaleLimit || d.inc >= evsidsRescaleLimit {
		t.Fatalf("rescale left oversized values: act=%v inc=%v", d.act[1], d.inc)
	}
	if d.act[1] <= d.act[2] {
		t.Fatal("rescale must preserve activity order")
	}
	// The relative order 1 > 2 > 3 must be intact, and nothing became 0/NaN.
	for v := cnf.Var(1); v <= 3; v++ {
		if math.IsNaN(d.act[v]) || math.IsInf(d.act[v], 0) {
			t.Fatalf("act[%d] = %v", v, d.act[v])
		}
	}
}

// TestEvsidsDecayGrowsIncrement pins the EVSIDS mechanics: the per-conflict
// onConflict hook multiplies the increment by 1/VarDecay, so later bumps
// outweigh earlier ones without touching stored activities.
func TestEvsidsDecayGrowsIncrement(t *testing.T) {
	o := EvsidsOptions()
	o.VarDecay = 0.5
	s := New(o)
	s.ensureVars(2)
	d := s.dec.(*evsidsDecider)
	d.bump(1)
	d.onConflict()
	d.bump(2)
	if d.act[2] != 2*d.act[1] {
		t.Fatalf("act after decayed bump = %v, want double %v", d.act[2], d.act[1])
	}
}

// TestLrbRewardMechanics drives the assign/unassign lifecycle by hand and
// checks the EMA reward: participation during the assignment interval,
// divided by the interval's conflict count, blended at rate alpha.
func TestLrbRewardMechanics(t *testing.T) {
	s := New(LrbOptions())
	s.ensureVars(2)
	d := s.dec.(*lrbDecider)

	d.onAssign(cnf.PosLit(1))
	d.onConflict()
	d.onConflict()
	d.participated[1] = 1 // credited by onAntecedent/onLearnt in real runs
	alpha := d.alpha      // read after the conflicts: alpha anneals per conflict
	d.onUnassign(1)
	want := (1 - alpha) * 0 // prior activity
	want += alpha * (1.0 / 2.0)
	if math.Abs(d.act[1]-want) > 1e-12 {
		t.Fatalf("act[1] = %v, want %v", d.act[1], want)
	}

	// A zero-conflict interval must not divide by zero or change the score.
	prev := d.act[1]
	d.onAssign(cnf.PosLit(1))
	d.onUnassign(1)
	if d.act[1] != prev {
		t.Fatalf("act[1] changed across an empty interval: %v -> %v", prev, d.act[1])
	}
}

// TestLrbAlphaAnneals checks the 0.4 -> 0.06 annealing floor.
func TestLrbAlphaAnneals(t *testing.T) {
	o := LrbOptions()
	o.LrbAlpha = 0.4
	o.LrbAlphaMin = 0.3
	o.LrbAlphaStep = 0.05
	s := New(o)
	s.ensureVars(1)
	d := s.dec.(*lrbDecider)
	for i := 0; i < 10; i++ {
		d.onConflict()
	}
	if d.alpha != 0.3 {
		t.Fatalf("alpha = %v, want annealed to the 0.3 floor", d.alpha)
	}
}

// TestLrbHeapTracksUnassigned pins the remove-on-assign discipline the
// locality decay relies on: the LRB heap holds exactly the unassigned
// variables at all times.
func TestLrbHeapTracksUnassigned(t *testing.T) {
	s := New(LrbOptions())
	s.AddClause(cnf.NewClause(1, 2, 3))
	d := s.dec.(*lrbDecider)
	if len(d.order.heap) != 3 {
		t.Fatalf("heap size = %d, want 3", len(d.order.heap))
	}
	s.newDecisionLevel()
	s.enqueue(cnf.PosLit(2), refUndef)
	if len(d.order.heap) != 2 {
		t.Fatalf("heap size after assign = %d, want 2", len(d.order.heap))
	}
	if d.order.pos[2] != 0 {
		t.Fatal("assigned var still in heap")
	}
	s.cancelUntil(0)
	if len(d.order.heap) != 3 {
		t.Fatalf("heap size after backtrack = %d, want 3", len(d.order.heap))
	}
}

// TestDeciderCloneIndependence extends the Clone aliasing guarantees to the
// two new deciders: the clone's decider state must be fully detached.
func TestDeciderCloneIndependence(t *testing.T) {
	t.Run("evsids", func(t *testing.T) {
		s := New(EvsidsOptions())
		s.AddClause(cnf.NewClause(1, 2))
		s.AddClause(cnf.NewClause(-1, 2))
		c := s.Clone()
		if c.dec == s.dec {
			t.Fatal("clone shares the decider object")
		}
		sd, cd := s.dec.(*evsidsDecider), c.dec.(*evsidsDecider)
		if len(sd.act) > 0 && len(cd.act) > 0 && &sd.act[0] == &cd.act[0] {
			t.Fatal("clone shares the activity slice")
		}
		if len(sd.order.heap) > 0 && len(cd.order.heap) > 0 && &sd.order.heap[0] == &cd.order.heap[0] {
			t.Fatal("clone shares the heap slice")
		}
		if cd.order.act != &cd.act {
			t.Fatal("clone's heap must point at the clone's activities")
		}
		sd.bump(1)
		if cd.act[1] == sd.act[1] {
			t.Fatal("bump in the original leaked into the clone")
		}
	})
	t.Run("lrb", func(t *testing.T) {
		s := New(LrbOptions())
		s.AddClause(cnf.NewClause(1, 2))
		s.AddClause(cnf.NewClause(-1, 2))
		c := s.Clone()
		if c.dec == s.dec {
			t.Fatal("clone shares the decider object")
		}
		sd, cd := s.dec.(*lrbDecider), c.dec.(*lrbDecider)
		if &sd.act[0] == &cd.act[0] || &sd.assignedAt[0] == &cd.assignedAt[0] || &sd.participated[0] == &cd.participated[0] {
			t.Fatal("clone shares LRB state slices")
		}
		if cd.order.act != &cd.act {
			t.Fatal("clone's heap must point at the clone's activities")
		}
		if !c.decAssign {
			t.Fatal("clone lost the assign-hook flag")
		}
	})
}

// TestDeciderResetRestartsLifetime checks Reset through the decider hook:
// activities clear, and the solver still answers correctly afterwards.
func TestDeciderResetRestartsLifetime(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"evsids", EvsidsOptions()},
		{"lrb", LrbOptions()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			in := gen.Pigeonhole(4)
			s := New(tc.opt)
			s.AddFormula(in.Formula)
			if r := s.Solve(); r.Status != StatusUnsat {
				t.Fatalf("first solve: %v", r.Status)
			}
			s.Reset()
			switch d := s.dec.(type) {
			case *evsidsDecider:
				for v, a := range d.act {
					if a != 0 {
						t.Fatalf("act[%d] = %v after Reset", v, a)
					}
				}
				if d.inc != 1 {
					t.Fatalf("inc = %v after Reset, want 1", d.inc)
				}
			case *lrbDecider:
				for v, a := range d.act {
					if a != 0 {
						t.Fatalf("act[%d] = %v after Reset", v, a)
					}
				}
				if d.conflicts != 0 {
					t.Fatalf("conflicts = %d after Reset, want 0", d.conflicts)
				}
			}
			s.AddFormula(in.Formula)
			if r := s.Solve(); r.Status != StatusUnsat {
				t.Fatalf("solve after Reset: %v", r.Status)
			}
			checkInvariants(t, s)
		})
	}
}

// TestReconfigureAcrossDeciderFamilies checks both Reconfigure paths: within
// a family the decider object survives (accumulated activities kept), across
// families a fresh decider is installed sized to the live variables.
func TestReconfigureAcrossDeciderFamilies(t *testing.T) {
	in := gen.Pigeonhole(4)

	// Same family: berkmin -> chaff keeps the berkminDecider instance.
	s := New(DefaultOptions())
	s.AddFormula(in.Formula)
	s.Solve()
	before := s.dec
	s.Reconfigure(ChaffOptions())
	if s.dec != before {
		t.Fatal("same-family Reconfigure must keep the decider instance")
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("after same-family Reconfigure: %v", r.Status)
	}

	// Cross family: berkmin -> evsids -> lrb installs fresh deciders.
	s.Reconfigure(EvsidsOptions())
	if _, ok := s.dec.(*evsidsDecider); !ok {
		t.Fatalf("decider after Reconfigure(evsids) = %T", s.dec)
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("after Reconfigure(evsids): %v", r.Status)
	}
	s.Reconfigure(LrbOptions())
	if _, ok := s.dec.(*lrbDecider); !ok {
		t.Fatalf("decider after Reconfigure(lrb) = %T", s.dec)
	}
	if !s.decAssign {
		t.Fatal("LRB needs the assign hook enabled")
	}
	if r := s.Solve(); r.Status != StatusUnsat {
		t.Fatalf("after Reconfigure(lrb): %v", r.Status)
	}
	checkInvariants(t, s)
}

// TestEvsidsReconfigureKeepsIncrement guards a subtle trap: resetting the
// bump increment to 1 while keeping large accumulated activities would
// freeze the heuristic (new bumps could never catch up). Same-family
// Reconfigure must keep inc and act together.
func TestEvsidsReconfigureKeepsIncrement(t *testing.T) {
	s := New(EvsidsOptions())
	s.AddFormula(gen.Pigeonhole(5).Formula)
	s.Solve()
	d := s.dec.(*evsidsDecider)
	incBefore := d.inc
	if incBefore <= 1 {
		t.Skip("run too short to grow the increment")
	}
	o := EvsidsOptions()
	o.VarDecay = 0.9
	s.Reconfigure(o)
	if d2 := s.dec.(*evsidsDecider); d2.inc != incBefore {
		t.Fatalf("inc = %v after same-family Reconfigure, want %v kept", d2.inc, incBefore)
	}
}
