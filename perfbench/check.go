package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"berkmin"
	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// The answer checks run outside the timed part of every workload. They
// use cnf evaluation directly, independently of the front end's own model
// verification, so a bug there cannot hide a wrong answer.

// expectedStatus maps a generator's known status to a solver verdict.
func expectedStatus(e gen.Expected) (berkmin.Status, error) {
	switch e {
	case gen.ExpSat:
		return berkmin.StatusSat, nil
	case gen.ExpUnsat:
		return berkmin.StatusUnsat, nil
	}
	return berkmin.StatusUnknown, fmt.Errorf("generator status %v is not known", e)
}

// checkVerdict checks a verdict against the expected one.
func checkVerdict(name string, got, want berkmin.Status) error {
	if got != want {
		return fmt.Errorf("%s: answered %v, expected %v", name, got, want)
	}
	return nil
}

// checkAnswer checks a verdict and, for SAT, its model.
func checkAnswer(name string, f *cnf.Formula, extra [][]int, got, want berkmin.Status, model []bool) error {
	if err := checkVerdict(name, got, want); err != nil {
		return err
	}
	if got == berkmin.StatusSat {
		return checkModel(name, f, extra, model)
	}
	return nil
}

// checkModel checks a SAT answer's model against the formula plus the
// extra clauses its query added (the temporary clause, and one unit clause
// per assumption).
func checkModel(name string, f *cnf.Formula, extra [][]int, model []bool) error {
	if len(model) <= f.NumVars {
		return fmt.Errorf("%s: model covers %d variables, formula has %d", name, len(model)-1, f.NumVars)
	}
	a := cnf.Assignment(model)
	if i := a.FirstFalsified(f); i >= 0 {
		return fmt.Errorf("%s: model falsifies clause %d of the formula", name, i)
	}
	for _, c := range extra {
		cl := cnf.NewClause(c...)
		if int(cl.MaxVar()) >= len(model) || !a.SatisfiesClause(cl) {
			return fmt.Errorf("%s: model falsifies query clause %v", name, c)
		}
	}
	return nil
}

// referenceVerdicts answers every query on a fresh berkmin.New() solver
// with the query's temporary clause added as an ordinary clause: the
// cross-check for the pooled and served answers. It uses every CPU, as it
// is not part of any measurement.
func referenceVerdicts(f *cnf.Formula, qs []query) ([]berkmin.Status, error) {
	want := make([]berkmin.Status, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.NumCPU())
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				s := berkmin.New()
				if err := s.AddFormula(f); err != nil {
					errs[w] = err
					return
				}
				if qs[i].temp != nil {
					if err := s.AddClause(qs[i].temp...); err != nil {
						errs[w] = fmt.Errorf("reference query %d: %w", i, err)
						return
					}
				}
				want[i] = s.SolveAssuming(qs[i].assume...).Status
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return want, nil
}
