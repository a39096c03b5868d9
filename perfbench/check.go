package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"minesweeper"
)

// reference is the expected answer of a registered run.
type reference struct {
	tuples int    // tuple lines
	hash   uint64 // FNV-1a over the lines, in stream order
	value  int    // the first tuple's first column (a count query's answer)
}

// engineReference evaluates the workload's registered query in process
// on a second engine (leapfrog) over the generated tuples, forced to the
// evaluation order the served stream reported, and renders its output
// exactly as msserve would: the served stream must match it line for
// line.
func engineReference(edges [][]int, q querySpec, gao []string) (reference, error) {
	rel, err := minesweeper.NewRelation("E", 2, edges)
	if err != nil {
		return reference{}, err
	}
	query, err := minesweeper.ParseQuery(q.Query, map[string]*minesweeper.Relation{"E": rel})
	if err != nil {
		return reference{}, err
	}
	opts, err := q.options()
	if err != nil {
		return reference{}, err
	}
	opts.Engine, opts.GAO, opts.Workers = minesweeper.EngineLeapfrog, gao, 0
	var ref reference
	h := fnv.New64a()
	var line []byte
	_, err = minesweeper.ExecuteStreamContext(context.Background(), query, &opts, func(t []int) bool {
		if ref.tuples == 0 && len(t) > 0 {
			ref.value = t[0]
		}
		line = tupleLine(line[:0], t)
		h.Write(line)
		ref.tuples++
		return true
	})
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	ref.hash = h.Sum64()
	return ref, nil
}

// renderReference orders tuples given over the variables qvars by the
// served evaluation order gao and renders them in the served column
// order vars, giving the reference a streamed answer must equal.
func renderReference(tuples [][]int, qvars, vars, gao []string) (reference, error) {
	pos := func(names []string) ([]int, error) {
		idx := make([]int, len(names))
		for i, n := range names {
			idx[i] = -1
			for j, q := range qvars {
				if q == n {
					idx[i] = j
				}
			}
			if idx[i] < 0 {
				return nil, fmt.Errorf("served variable %q is not in the query %v", n, qvars)
			}
		}
		return idx, nil
	}
	gi, err := pos(gao)
	if err != nil {
		return reference{}, err
	}
	vi, err := pos(vars)
	if err != nil {
		return reference{}, err
	}
	sorted := append([][]int(nil), tuples...)
	sort.Slice(sorted, func(a, b int) bool {
		for _, j := range gi {
			if sorted[a][j] != sorted[b][j] {
				return sorted[a][j] < sorted[b][j]
			}
		}
		return false
	})
	var ref reference
	h := fnv.New64a()
	var line []byte
	row := make([]int, len(vi))
	for _, t := range sorted {
		for i, j := range vi {
			row[i] = t[j]
		}
		line = tupleLine(line[:0], row)
		h.Write(line)
		ref.tuples++
	}
	ref.hash = h.Sum64()
	return ref, nil
}

// countReference is the answer of a count query: one line "[n]", or
// no line at all when nothing matched (the shaping contract emits one
// row per non-empty group).
func countReference(n int) reference {
	h := fnv.New64a()
	if n == 0 {
		return reference{hash: h.Sum64()}
	}
	h.Write(tupleLine(nil, []int{n}))
	return reference{tuples: 1, hash: h.Sum64(), value: n}
}

// matches reports whether a served run equals the reference, line for
// line.
func (ref reference) matches(res *streamResult) bool {
	return res.Tuples == ref.tuples && res.Hash == ref.hash
}
