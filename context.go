package sdquery

import (
	"context"
	"errors"

	"repro/internal/core"
)

// Context-aware query paths. The serving layer (package serve) enforces
// per-request deadlines through these: the engine's aggregation loop polls
// the context's Done channel once per scheduling step, so a cancelled or
// timed-out query stops within one adaptive batch (≤ 64 sorted accesses per
// subproblem) instead of running to termination. Cancellation releases every
// pooled resource — stream heaps, bitsets, result buffers — exactly like a
// completed query, so a storm of cancelled requests leaves the
// zero-allocation steady state intact (TestTopKContext pins this).
//
// The non-context paths (TopK, TopKAppend) are unchanged and pay nothing:
// the cancellation poll is nil-guarded.

// ctxErr translates the engine's internal cancellation sentinel into the
// context's own error (context.Canceled or context.DeadlineExceeded), which
// is what callers select on.
func ctxErr(ctx context.Context, err error) error {
	if errors.Is(err, core.ErrCanceled) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

// TopKContext answers the query, stopping early with ctx.Err() if the
// context is cancelled or its deadline passes mid-aggregation. See Engine.
func (s *SDIndex) TopKContext(ctx context.Context, q Query) ([]Result, error) {
	return s.TopKAppendContext(ctx, nil, q)
}

// TopKAppendContext is TopKAppend honoring the context's cancellation and
// deadline. On cancellation it returns dst unextended and ctx.Err(); pooled
// per-query state is released either way.
func (s *SDIndex) TopKAppendContext(ctx context.Context, dst []Result, q Query) ([]Result, error) {
	res, err := s.appendVia(s.eng.View(), dst, q, ctx.Done())
	return res, ctxErr(ctx, err)
}

// BatchTopKContext is BatchTopK honoring the context's cancellation and
// deadline: every in-flight member polls the same Done channel, so a
// cancelled batch unwinds within one scheduling step per member and the
// members not yet started are skipped. The serving layer's /v1/batch
// endpoint runs through this, so a batch whose request has timed out stops
// consuming the engine.
func (s *SDIndex) BatchTopKContext(ctx context.Context, queries []Query) ([][]Result, error) {
	out, err := s.batchTopK(queries, ctx.Done())
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	return out, nil
}

// Compactions reports how many compaction steps (memtable seals, stack
// folds, dead-row reclaims — background or explicit) the engine has
// completed since construction. Monotonic; the serving layer exports it on
// /metrics.
func (s *SDIndex) Compactions() uint64 { return s.eng.Compactions() }
