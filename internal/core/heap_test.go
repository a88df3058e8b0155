package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"berkmin/internal/cnf"
)

// TestVarHeapBasics: insert, pop order, duplicate insert.
func TestVarHeapBasics(t *testing.T) {
	act := []int64{0, 5, 9, 1, 9}
	h := actHeap[cnf.Var, int64]{act: &act}
	for v := cnf.Var(1); v <= 4; v++ {
		h.insert(v)
	}
	h.insert(2) // duplicate: no-op
	if len(h.heap) != 4 {
		t.Fatalf("heap size = %d", len(h.heap))
	}
	first := h.pop()
	if act[first] != 9 {
		t.Fatalf("pop activity = %d, want 9", act[first])
	}
	second := h.pop()
	if act[second] != 9 {
		t.Fatalf("second pop activity = %d, want 9", act[second])
	}
	if h.pop() != 1 || h.pop() != 3 {
		t.Fatal("remaining pops out of order")
	}
	if h.pop() != 0 {
		t.Fatal("empty heap must pop 0")
	}
}

// TestVarHeapBumped: raising a key restores order.
func TestVarHeapBumped(t *testing.T) {
	act := []int64{0, 1, 2, 3}
	h := actHeap[cnf.Var, int64]{act: &act}
	for v := cnf.Var(1); v <= 3; v++ {
		h.insert(v)
	}
	act[1] = 100
	h.bumped(1)
	if got := h.pop(); got != 1 {
		t.Fatalf("pop = %d, want bumped var 1", got)
	}
}

// TestVarHeapAgainstReference drives random operation sequences and
// compares pop order with a linear-scan reference; with byIndex the pop
// must be exactly the reference's lowest maximally active variable.
func TestVarHeapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(30)
		act := make([]int64, n+1)
		h := actHeap[cnf.Var, int64]{act: &act, byIndex: iter%2 == 1}
		present := map[cnf.Var]bool{}
		for v := cnf.Var(1); int(v) <= n; v++ {
			h.insert(v)
			present[v] = true
		}
		for op := 0; op < 50; op++ {
			switch rng.Intn(3) {
			case 0: // bump
				v := cnf.Var(1 + rng.Intn(n))
				act[v] += int64(rng.Intn(5))
				h.bumped(v)
			case 1: // reinsert
				v := cnf.Var(1 + rng.Intn(n))
				h.insert(v)
				present[v] = true
			case 2: // pop and compare with the max of present
				if len(present) == 0 {
					continue
				}
				var want cnf.Var
				var wantAct int64 = -1
				for v := range present {
					if act[v] > wantAct || (act[v] == wantAct && v < want) {
						want, wantAct = v, act[v]
					}
				}
				got := h.pop()
				if got == 0 {
					t.Fatal("heap empty while reference is not")
				}
				if act[got] != wantAct || (h.byIndex && got != want) {
					t.Fatalf("pop %d (activity %d), reference %d (activity %d)", got, act[got], want, wantAct)
				}
				delete(present, got)
			}
		}
	}
}

// TestXorshiftDeterministicAndSpread: the PRNG reproduces per seed and
// intn covers its range.
func TestXorshiftDeterministicAndSpread(t *testing.T) {
	a, b := newXorshift(42), newXorshift(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed must reproduce")
		}
	}
	c := newXorshift(0) // zero seed replaced by a constant
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := c.intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 8 {
		t.Fatalf("poor spread: %v", seen)
	}
}

// TestXorshiftQuick: intn stays in range for arbitrary seeds (property).
func TestXorshiftQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		x := newXorshift(seed)
		v := x.intn(int(n))
		return v >= 0 && v < int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSkinHistGrowth: recording grows the histogram on demand.
func TestSkinHistGrowth(t *testing.T) {
	var h SkinHist
	h.record(0)
	h.record(5)
	h.record(5)
	if h.At(0) != 1 || h.At(5) != 2 || h.At(3) != 0 || h.At(99) != 0 {
		t.Fatalf("hist = %v", h.Counts)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.At(-1) != 0 {
		t.Fatal("negative distance must read 0")
	}
}
