package core

import "berkmin/internal/cnf"

// bumpVar increments a variable's activity and keeps the variable pick
// order consistent.
func (d *berkminDecider) bumpVar(v cnf.Var) {
	d.varAct[v]++
	d.order.raise(v)
}

// decay ages the dynamic activity counters. Chaff periodically divides its
// literal counters by a constant so the search focuses on the youngest
// clauses (§3); BerkMin inherits the idea for its variable activities. The
// lit_activity counters of §7 are deliberately *not* aged: they count the
// conflict clauses ever deduced, which is what database symmetrization
// needs. Integer division can zero counters and merge others into ties, so
// the active pick order is restored afterwards.
func (d *berkminDecider) decay() {
	div := d.s.opt.AgingDivisor
	for v := range d.varAct {
		d.varAct[v] /= div
	}
	for l := range d.chaffAct {
		d.chaffAct[l] /= div
	}
	d.order.aged()
	d.litOrder.aged()
}

// onNewQuery fades the previous queries' influence with one extra aging
// step: the integer counters weigh less against the coming query's bumps.
// QueryDecay's magnitude is ignored here — BerkMin's counters age by
// division, so the configured AgingDivisor is the natural step.
func (d *berkminDecider) onNewQuery() { d.decay() }
