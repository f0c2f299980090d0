package sdquery

import (
	"repro/internal/core"
	"repro/internal/query"
)

// Snapshot is an immutable point-in-time view of an SDIndex: queries
// through it see exactly the rows that were live when Snapshot was called,
// no matter how many Inserts, Removes, or background compactions run
// afterwards. Acquiring one costs a single atomic load — no lock — and a
// Snapshot never blocks writers; it pins its row set only against the
// garbage collector, so drop it when done.
//
// Snapshot isolation is what the engine's differential harness leans on:
// every answer through a Snapshot is byte-identical to a sequential scan of
// the rows live at acquisition time.
type Snapshot struct {
	s    *SDIndex
	view core.View
}

// Snapshot acquires the index's current snapshot.
func (s *SDIndex) Snapshot() *Snapshot {
	return &Snapshot{s: s, view: s.eng.View()}
}

// Len reports the number of live rows the snapshot can see.
func (sn *Snapshot) Len() int { return sn.view.Len() }

// Segments reports the sealed-segment count and memtable rows frozen in
// the snapshot.
func (sn *Snapshot) Segments() (segments, memRows int) {
	return sn.view.Segments(), sn.view.MemRows()
}

// TopK answers the query against the snapshot's frozen row set. See
// Engine.TopK.
func (sn *Snapshot) TopK(q Query) ([]Result, error) {
	return sn.TopKAppend(nil, q)
}

// TopKAppend is TopK appending into dst; it shares the parent index's
// pooled buffers, so with a caller-reused dst the steady-state path
// performs no allocation.
func (sn *Snapshot) TopKAppend(dst []Result, q Query) ([]Result, error) {
	return sn.s.appendVia(sn.view, dst, q, nil)
}

// appendVia is the shared SDIndex/Snapshot append path: run the core query
// against the given view into a pooled scratch buffer, then convert into
// dst. A non-nil done channel cancels the aggregation (the TopKContext
// path); nil costs nothing.
func (s *SDIndex) appendVia(view core.View, dst []Result, q Query, done <-chan struct{}) ([]Result, error) {
	bp, _ := s.buf.Get().(*[]query.Result)
	if bp == nil {
		bp = new([]query.Result)
	}
	res, _, err := view.TopKAppendCancel((*bp)[:0], q.spec(), done)
	*bp = res[:0] // keep the grown capacity pooled either way
	if err != nil {
		s.buf.Put(bp)
		return dst, err
	}
	if dst == nil {
		// The TopK convenience path: one exact-size allocation instead of
		// letting append double a nil slice through ~log k regrowths.
		dst = make([]Result, 0, len(res))
	}
	for _, r := range res {
		dst = append(dst, Result{ID: r.ID, Score: r.Score})
	}
	s.buf.Put(bp)
	return dst, nil
}
