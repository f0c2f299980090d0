package sdquery

import (
	"repro/internal/query"
)

// Role classifies one dimension of a query or an index.
type Role = query.Role

// Role values: Ignored dimensions do not contribute to the score; Attractive
// dimensions reward closeness (the set S of the paper); Repulsive dimensions
// reward distance (the set D).
const (
	Ignored    = query.Ignored
	Attractive = query.Attractive
	Repulsive  = query.Repulsive
)

// Query is a complete SD-Query: the query object, the answer size, and the
// per-dimension roles and weights (α for repulsive dimensions, β for
// attractive ones). All weights must be finite and non-negative, and at
// least one dimension must be active.
type Query struct {
	Point   []float64
	K       int
	Roles   []Role
	Weights []float64
}

func (q Query) spec() query.Spec {
	return query.Spec{Point: q.Point, K: q.K, Roles: q.Roles, Weights: q.Weights}
}

// Score evaluates the SD-score of a data point under this query (Eqn. 3 of
// the paper). Exposed for applications that post-process results.
func (q Query) Score(p []float64) float64 { return q.spec().Score(p) }

// Result is one answer: the dataset row index and its SD-score. Results are
// returned best-first.
type Result struct {
	ID    int
	Score float64
}

// Engine answers SD-Queries over a dataset. All provided engines return
// score-identical answers; they differ in indexing strategy and therefore
// speed. Every engine is safe for concurrent TopK calls. SDIndex
// additionally supports fully concurrent updates: its queries read an
// atomically loaded snapshot of an immutable segment store (no lock on the
// read path), while Insert/Remove/compaction publish new snapshots without
// blocking readers. The baseline engines
// (scan, TA, BRS, PE) are read-only.
type Engine interface {
	// TopK returns the q.K highest-scoring points, best first. It returns
	// fewer results only when the dataset is smaller than q.K.
	TopK(q Query) ([]Result, error)
	// Len reports the number of indexed points.
	Len() int
}

func convertResults(in []query.Result) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		out[i] = Result{ID: r.ID, Score: r.Score}
	}
	return out
}
