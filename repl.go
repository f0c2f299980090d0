package sdquery

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Replication surface: what a leader exports so a follower can mirror it,
// and what a follower (or any caller assembling an index from replicated
// state) needs to apply the stream. An index replicates as one snapshot +
// WAL-tail stream. The wire format still numbers streams and carries an LSN
// vector, so every method takes a stream index (always 0) and ShardLSNs
// returns a one-element vector.
//
// See internal/core/repl.go for the stream formats and the gap contract;
// package serve wires these methods to the /v1/repl/{manifest,segment,wal}
// endpoints and runs the follower's pull loop.

// ErrReplGap reports a non-contiguous WAL tail: the range a follower needs
// was retired by a checkpoint, or the stream itself was damaged. The only
// safe continuation is a full re-bootstrap from a fresh snapshot.
var ErrReplGap = core.ErrReplGap

// ErrIDExists reports an InsertWithID whose ID is not above the index's ID
// space: the slot was already assigned (by this writer or an earlier
// incarnation of it). Callers implementing idempotent retries compare the
// occupying row with PointByID to distinguish their own duplicate from a
// genuine collision.
var ErrIDExists = core.ErrIDExists

// ReplTail describes one WAL-tail export; see core.WALTailInfo.
type ReplTail struct {
	From, Last uint64
	LeaderLSN  uint64
	Records    int
	Gap        bool
	Capped     bool
}

// ReplShards reports 1: an SDIndex replicates as a single stream.
func (s *SDIndex) ReplShards() int { return 1 }

// ShardLSNs returns the one-element last-applied LSN vector — the index's
// replication position in the wire format's vector form.
func (s *SDIndex) ShardLSNs() []uint64 { return []uint64{s.eng.LastLSN()} }

// checkStream rejects any stream index but 0.
func checkStream(si int) error {
	if si != 0 {
		return fmt.Errorf("sdquery: stream %d of 1", si)
	}
	return nil
}

// ReplSnapshot streams the index's current snapshot in the checkpoint
// format (si must be 0) and returns the WAL LSN the stream covers.
func (s *SDIndex) ReplSnapshot(si int, w io.Writer) (uint64, error) {
	if err := checkStream(si); err != nil {
		return 0, err
	}
	return s.eng.SaveWithLSN(w)
}

// ReplWALTail streams the WAL records after LSN from (si must be 0),
// writing at most maxBytes of records per call (0 = unbounded; a capped
// export sets Capped and the caller resumes from Last); see
// core.Engine.WALTail for the gap contract.
func (s *SDIndex) ReplWALTail(si int, from uint64, w io.Writer, maxBytes int) (ReplTail, error) {
	if err := checkStream(si); err != nil {
		return ReplTail{}, err
	}
	info, err := s.eng.WALTail(w, from, maxBytes)
	return ReplTail(info), err
}

// ApplyReplWAL applies a ReplWALTail stream (si must be 0), idempotently by
// LSN, and reports how many records actually applied. The index must have
// been built from the same leader's snapshot (NewFollowerIndex); applying
// an unrelated stream fails with ErrReplGap. A follower index is read-only
// by contract, queried but never written directly.
func (s *SDIndex) ApplyReplWAL(si int, r io.Reader) (int, error) {
	if err := checkStream(si); err != nil {
		return 0, err
	}
	_, n, err := s.eng.ApplyWALStream(r)
	return n, err
}

// AttachWAL makes a follower index durable in place — the promotion path:
// an index assembled from a leader's snapshot stream (NewFollowerIndex)
// owns no log, and a replica elected leader must become durable before it
// accepts writes. AttachWAL writes a fresh MANIFEST under dir and attaches
// a WAL seeded with a checkpoint of the current state; mutations from here
// on log at the LSNs the replicated history left off at, so the index's own
// followers see one contiguous stream. dir must not already hold a durable
// index. The option list supplies the WAL knobs to run with
// (WithSyncPolicy, WithSyncInterval, WithWALFS); the caller must guarantee
// no mutations are in flight during the attach.
func (s *SDIndex) AttachWAL(dir string, opts ...SDOption) error {
	var cfg sdConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.walDir = dir
	if err := writeManifest(&cfg); err != nil {
		return err
	}
	if err := s.eng.AttachWAL(*cfg.walConfig(engineWALDir(dir))); err != nil {
		return fmt.Errorf("sdquery: attach wal: %w", err)
	}
	return nil
}

// Total reports the size of the index's global ID space: every indexed ID
// is below it, and the next caller-assigned ID must not be. (Len counts
// live rows; Total counts the space, removals included.)
func (s *SDIndex) Total() int { return s.eng.Total() }

// Dims reports the index's dimensionality.
func (s *SDIndex) Dims() int { return len(s.roles) }

// InsertWithID inserts p under a caller-assigned global ID, which must be
// above every ID the index has seen (IDs are append-only and ascending); an
// ID already inside the space fails with ErrIDExists, also when two
// concurrent calls race on one ID. A distributed writer (cmd/sdrouter)
// assigns cluster-unique ascending IDs and retries ambiguous failures under
// the same ID — the ErrIDExists + PointByID pair is what makes that retry
// provably idempotent. Durability matches Insert.
func (s *SDIndex) InsertWithID(id int, p []float64) error { return s.eng.InsertWithID(id, p) }

// PointByID returns a copy of the coordinates indexed under a global ID —
// live or tombstoned — with ok=false when the ID locates nowhere (never
// inserted, or reclaimed by compaction after removal).
func (s *SDIndex) PointByID(id int) ([]float64, bool) { return s.eng.Row(id) }

// NewFollowerIndex assembles an SDIndex from a leader's snapshot stream
// (its ReplSnapshot output). The result serves reads exactly like the
// leader's index did at that snapshot; advance it with ApplyReplWAL as the
// leader's log grows. The option list supplies runtime knobs only (workers,
// scheduler, memtable); structure comes from the stream.
func NewFollowerIndex(snap io.Reader, opts ...SDOption) (*SDIndex, error) {
	opt, cfg := runtimeOptions(opts)
	idx, err := cfg.open(func(pool core.Runner) (*core.Engine, error) {
		opt.Pool = pool
		return core.Load(snap, opt)
	})
	if err != nil {
		return nil, fmt.Errorf("sdquery: follower: %w", err)
	}
	return idx, nil
}
