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

// TopKContext answers the query across every shard, stopping early with
// ctx.Err() if the context is cancelled or its deadline passes: each
// shard's aggregation polls the same Done channel, so the whole fan-out
// unwinds within one scheduling step per shard.
func (s *ShardedIndex) TopKContext(ctx context.Context, q Query) ([]Result, error) {
	return s.TopKAppendContext(ctx, nil, q)
}

// TopKAppendContext is TopKAppend honoring the context's cancellation and
// deadline across the shard fan-out. TopKAppend delegates here with
// context.Background (whose nil Done channel keeps the poll free), so this
// is the one sharded single-query fan-out body.
func (s *ShardedIndex) TopKAppendContext(ctx context.Context, dst []Result, q Query) ([]Result, error) {
	spec := q.spec()
	p := len(s.shards)
	c := s.getCtx(p)
	defer s.putCtx(c)
	if err := s.fanOutQuery(spec, c, nil, nil, ctx.Done()); err != nil {
		return dst, ctxErr(ctx, err)
	}
	return mergeShards(dst, c.bufs[:p], c.pos, q.K), nil
}

// BatchTopKContext is BatchTopK honoring the context's cancellation and
// deadline: every in-flight (query × shard) task polls the same Done
// channel, so a cancelled batch unwinds within one scheduling step per
// task. The serving layer's /v1/batch endpoint runs through this, so a
// batch whose request has timed out stops consuming the engine.
func (s *ShardedIndex) BatchTopKContext(ctx context.Context, queries []Query) ([][]Result, error) {
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

// Segments reports the sealed-segment count and memtable rows summed over
// every shard's current snapshot — the observable shape of the storage
// stack that background compaction continuously reorganizes (one atomic
// snapshot load per shard; no locks).
func (s *ShardedIndex) Segments() (segments, memRows int) {
	for _, sh := range s.shards {
		segs, mem := sh.eng.Segments()
		segments += segs
		memRows += mem
	}
	return segments, memRows
}

// Compactions reports completed compaction steps summed over every shard.
func (s *ShardedIndex) Compactions() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.eng.Compactions()
	}
	return total
}
