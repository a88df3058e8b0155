package core

// activityKey is the key type of an actHeap: the legacy BerkMin/Chaff
// counters are integers, EVSIDS and LRB keep float activities.
type activityKey interface {
	~int64 | ~float64
}

// actHeap is an indexed max-heap over variables (or literals — anything
// int32-indexed) keyed by an external activity array. With byIndex set a
// pop is exactly the paper's most-active scan, which keeps the first
// maximum, i.e. the lowest index. A uniform scaling that keeps keys
// distinct (EVSIDS multiplying every activity by one constant) preserves
// the order without a rebuild; integer division (the legacy counters'
// aging) can merge keys into new ties, so it needs heapify.
type actHeap[I ~int32, K activityKey] struct {
	act  *[]K
	heap []I
	pos  []int32 // pos[x] is index+1 in heap, 0 = absent
	// byIndex breaks activity ties toward the lower index. pickOrder sets
	// it; EVSIDS and LRB keep the layout-dependent tie order their search
	// has always had.
	byIndex bool
}

func (h *actHeap[I, K]) less(i, j int) bool {
	a := *h.act
	x, y := h.heap[i], h.heap[j]
	return a[x] > a[y] || (h.byIndex && a[x] == a[y] && x < y)
}

func (h *actHeap[I, K]) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i + 1)
	h.pos[h.heap[j]] = int32(j + 1)
}

func (h *actHeap[I, K]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *actHeap[I, K]) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// grow makes room for indices up to x.
func (h *actHeap[I, K]) grow(x I) {
	for len(h.pos) <= int(x) {
		h.pos = append(h.pos, 0)
	}
}

// insert adds x if absent.
func (h *actHeap[I, K]) insert(x I) {
	h.grow(x)
	if h.pos[x] != 0 {
		return
	}
	h.heap = append(h.heap, x)
	h.pos[x] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

// bumped restores the heap property after x's activity increased.
func (h *actHeap[I, K]) bumped(x I) {
	if int(x) < len(h.pos) && h.pos[x] != 0 {
		h.up(int(h.pos[x]) - 1)
	}
}

// remove deletes x if present (LRB keeps assigned variables out of the
// heap so its per-conflict locality decay can walk exactly the unassigned
// ones).
func (h *actHeap[I, K]) remove(x I) {
	if int(x) >= len(h.pos) || h.pos[x] == 0 {
		return
	}
	i := int(h.pos[x]) - 1
	last := len(h.heap) - 1
	h.pos[x] = 0
	if i == last {
		h.heap = h.heap[:last]
		return
	}
	moved := h.heap[last]
	h.heap[i] = moved
	h.pos[moved] = int32(i + 1)
	h.heap = h.heap[:last]
	h.up(i)
	h.down(i)
}

// heapify restores the heap order after arbitrary key changes.
func (h *actHeap[I, K]) heapify() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// clear empties the heap, keeping the backing storage.
func (h *actHeap[I, K]) clear() {
	h.heap = h.heap[:0]
	clear(h.pos)
}

// pop removes and returns the most active element, or 0 if empty.
func (h *actHeap[I, K]) pop() I {
	if len(h.heap) == 0 {
		return 0
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.pos[top] = 0
	if last > 0 {
		h.down(0)
	}
	return top
}

// cloneHeap deep-copies a heap, rebinding its activity pointer to the
// clone's array.
func cloneHeap[I ~int32, K activityKey](h *actHeap[I, K], act *[]K) actHeap[I, K] {
	return actHeap[I, K]{
		act:     act,
		heap:    append([]I(nil), h.heap...),
		pos:     append([]int32(nil), h.pos...),
		byIndex: h.byIndex,
	}
}

// pickOrder is the legacy BerkMin decider's pick structure over variables
// or literals: it yields the free element with the largest counter, ties
// to the lowest index, which is exactly the paper's scan (§4, §7).
// Elements with a nonzero counter live in a tie-broken activity heap
// (BerkMin561's strategy 3). Zero-counter elements all tie, so index order
// is their activity order and a cursor serves them: after a Reset, or on a
// wide formula few conflicts touch, that is most elements, and popping
// each would cost log n.
//
// Invariants: the heap holds every free element with a nonzero counter and
// no zero-counter element; every free zero-counter element lies at or past
// next. Element x belongs to variable x>>shift. An order with last 0 is
// unused and ignores updates.
type pickOrder[I ~int32] struct {
	heap  actHeap[I, int64]
	shift uint8 // 0 over variables, 1 over literals
	last  I     // the highest element
	next  I     // cursor over the zero-counter elements
}

func newPickOrder[I ~int32](act *[]int64, shift uint8) pickOrder[I] {
	return pickOrder[I]{heap: actHeap[I, int64]{act: act, byIndex: true}, shift: shift, next: 1 << shift}
}

// arm refills the order over the elements up to last from the counters.
func (o *pickOrder[I]) arm(last I) {
	o.heap.clear()
	o.last, o.next = last, 1<<o.shift
	for x := o.next; x <= last; x++ {
		if (*o.heap.act)[x] != 0 {
			o.heap.insert(x)
		}
	}
}

// raise restores the order after x's counter increased.
func (o *pickOrder[I]) raise(x I) {
	h := &o.heap
	switch {
	case x > o.last:
	case int(x) < len(h.pos) && h.pos[x] != 0:
		h.up(int(h.pos[x]) - 1)
	default:
		h.insert(x)
	}
}

// unassigned returns x to the order when it becomes free again.
func (o *pickOrder[I]) unassigned(x I) {
	if x > o.last {
		return
	}
	if (*o.heap.act)[x] != 0 {
		o.heap.insert(x)
	} else {
		o.next = min(o.next, x)
	}
}

// aged restores the invariants after the counters were divided: elements
// whose counter reached zero leave the heap for the cursor, and the rest
// is re-heapified, since division can merge counters into new ties.
func (o *pickOrder[I]) aged() {
	h := &o.heap
	kept := h.heap[:0]
	for _, x := range h.heap {
		h.pos[x] = 0
		if (*h.act)[x] == 0 {
			o.next = min(o.next, x)
			continue
		}
		kept = append(kept, x)
		h.pos[x] = int32(len(kept))
	}
	h.heap = kept
	h.heapify()
}

// pick returns the most active free element, or 0 if every element is
// assigned. An answer taken from the heap leaves it; the caller assigns
// the answer or hands it back through unassigned.
func (o *pickOrder[I]) pick(assigns []lbool) I {
	for {
		x := o.heap.pop()
		if x == 0 {
			break
		}
		if assigns[x>>o.shift] == lUndef {
			return x
		}
	}
	// No free element has a nonzero counter.
	for ; o.next <= o.last; o.next++ {
		if x := o.next; (*o.heap.act)[x] == 0 && assigns[x>>o.shift] == lUndef {
			return x
		}
	}
	return 0
}

// clone deep-copies the order, rebinding its heap to the clone's counters.
func (o *pickOrder[I]) clone(act *[]int64) pickOrder[I] {
	c := *o
	c.heap = cloneHeap(&o.heap, act)
	return c
}
