package main

import (
	"math"
	"slices"
	"sync"

	sdquery "repro"
)

// The oracle is the sequential scan (sdquery.NewScan): answers must match
// it exactly — the same ids in the same order (score descending, id
// ascending) with bit-identical scores.

type oracle struct {
	scan sdquery.Engine
	ids  []int // scan row → row id
}

// newOracle indexes the given live rows with the scan engine. Rows are laid
// out in ascending id order so the scan's tie order (row ascending) is the
// id order.
func newOracle(live map[int][]float64) (*oracle, error) {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		rows[i] = live[id]
	}
	scan, err := sdquery.NewScan(rows)
	if err != nil {
		return nil, err
	}
	return &oracle{scan: scan, ids: ids}, nil
}

func (o *oracle) answer(q sdquery.Query) ([]sdquery.Result, error) {
	res, err := o.scan.TopK(q)
	for i := range res {
		res[i].ID = o.ids[res[i].ID]
	}
	return res, err
}

func sameAnswer(got, want []sdquery.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// mismatches checks answers against the oracle on up to workers goroutines
// and returns how many differ.
func (o *oracle) mismatches(qs *querySet, answers []answer, workers int) int {
	var mu sync.Mutex
	bad := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(answers); i += workers {
				want, err := o.answer(qs.get(answers[i].qi).q)
				if err != nil || !sameAnswer(answers[i].got, want) {
					mu.Lock()
					bad++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return bad
}
