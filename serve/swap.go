package serve

import (
	"fmt"
	"net/http"
	"os"
	"time"

	sdquery "repro"
)

// Zero-downtime index swap. POST /v1/admin/swap {"path": "file.sdx"} loads
// a persisted index (the binary Save/Load format) and publishes it with one
// atomic pointer store. The load — file read, segment decode, deterministic
// tree rebuild — happens entirely on the admin request's goroutine while
// queries keep flowing against the old index; the swap itself is the
// pointer store. Requests that grabbed the old index before the store keep
// using it to completion: every handler takes the index exactly once per
// request, and within an index the engine's snapshot discipline pins a
// consistent row set, so no request can observe half an old index and half
// a new one.
//
// The old index's worker pool is released after the swap. Close only parks
// the pool's goroutines — queries already running on the old index degrade
// to caller-goroutine execution and still answer correctly (documented on
// SDIndex.Close), so releasing immediately is safe.

// defaultLoader builds the swap loader used when WithLoader is not given:
// open the file and load the SDIndex it holds.
func defaultLoader(opts []sdquery.SDOption) func(path string) (Index, error) {
	return func(path string) (Index, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		idx, err := sdquery.LoadSDIndex(f, opts...)
		if err != nil {
			return nil, err
		}
		return idx, nil
	}
}

// Swap atomically replaces the serving index and returns the previous one.
// In-flight requests finish on whichever index they grabbed. The caller
// owns the returned index (the HTTP swap handler releases its worker pool;
// an in-process caller may want to keep it).
func (s *Server) Swap(idx Index) Index {
	// The new box's generation makes every cached entry stale at once:
	// entries are versioned by (gen, epoch) and no entry carries the new gen.
	old := s.box.Swap(s.newBox(idx))
	s.met.swaps.Add(1)
	return old.idx
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(epSwap, time.Since(t0), status) }()

	// One swap at a time: concurrent admin calls would race their loads and
	// leak whichever index lost the pointer store.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	// On a follower the replication loop owns the index; an admin swap would
	// fork it from the leader.
	if status = s.refuseFollowerWrite(w); status != http.StatusOK {
		return
	}

	body, err := readBody(w, r)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	var ws wireSwap
	if err := strictUnmarshal(body, &ws); err != nil {
		status = http.StatusBadRequest
		writeError(w, status, err)
		return
	}
	if ws.Path == "" {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("swap needs a path"))
		return
	}
	next, err := s.cfg.loader(ws.Path)
	if err != nil {
		status = http.StatusBadRequest
		writeError(w, status, fmt.Errorf("load %s: %w", ws.Path, err))
		return
	}
	old := s.Swap(next)
	if c, ok := old.(closer); ok && old != next {
		c.Close()
	}
	writeJSON(w, http.StatusOK, swapResponse{Swapped: true, Points: next.Len()})
}
