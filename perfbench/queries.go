package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"berkmin"
)

// The query mix of querystream and served, modelled on IC3-style
// incremental use: small cubes of assumptions against one fixed formula,
// with every tempEvery-th query also adding a clause that holds for that
// query only.
const (
	assumeLits = 2 // assumptions per query: about 3 in 4 answers are SAT
	tempEvery  = 4 // 3 assumption-only queries to 1 temp-clause query
)

// query is one request of the stream.
type query struct {
	assume []int
	temp   []int // the query's 2-literal clause; nil for assumption-only queries
	body   []byte
}

// clauses lists what a SAT answer must satisfy beyond the formula.
func (q query) clauses() [][]int {
	out := make([][]int, 0, len(q.assume)+1)
	for _, a := range q.assume {
		out = append(out, []int{a})
	}
	if q.temp != nil {
		out = append(out, q.temp)
	}
	return out
}

// genQueries draws n queries over variables 1..numVars from the seed,
// with their satserved request bodies.
func genQueries(seed int64, numVars, n int) ([]query, error) {
	rng := rand.New(rand.NewSource(seed))
	lit := func() int {
		v := rng.Intn(numVars) + 1
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	qs := make([]query, n)
	for i := range qs {
		q := query{assume: make([]int, assumeLits)}
		for j := range q.assume {
			q.assume[j] = lit()
		}
		req := struct {
			Assumptions []int   `json:"assumptions"`
			TempClauses [][]int `json:"temp_clauses,omitempty"`
		}{Assumptions: q.assume}
		if i%tempEvery == tempEvery-1 {
			q.temp = []int{lit(), lit()}
			req.TempClauses = [][]int{q.temp}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		q.body = body
		qs[i] = q
	}
	return qs, nil
}

// solveOn answers q on a solver from a pool: assumptions only, or the
// temporary clause in a fresh group that is released after the solve.
func solveOn(w *berkmin.Solver, q query) (berkmin.Result, error) {
	if q.temp == nil {
		return w.SolveAssuming(q.assume...), nil
	}
	g := w.NewClauseGroup()
	if err := w.AddClauseGroup(g, q.temp...); err != nil {
		return berkmin.Result{}, fmt.Errorf("temp clause %v: %w", q.temp, err)
	}
	r := w.SolveAssuming(q.assume...)
	w.ReleaseGroup(g)
	return r, nil
}
