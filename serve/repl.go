package serve

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	sdquery "repro"
)

// Replication endpoints — the leader half of follower replication. A leader
// exports its state over three read-only endpoints; a follower (follower.go)
// pulls them:
//
//	GET /v1/repl/manifest            JSON: stream format, source token,
//	                                 shard count, dims, per-shard LSN vector
//	GET /v1/repl/segment?shard=N     shard N's snapshot (checkpoint format)
//	GET /v1/repl/wal?shard=N&from=L  shard N's WAL records with LSN > L
//	                                 (log-record framing); 410 Gone when the
//	                                 range was retired by a checkpoint
//
// The streams are exactly the formats the engine already trusts with
// durability (sdquery Save / WAL records), so replication adds no new
// parser on either side. The leader keeps no per-follower state: a
// follower names its own cursor in every /wal request, and a cursor that
// falls off the retained log gets 410 and re-bootstraps from fresh
// snapshots — the Redis-PSYNC/InstallSnapshot recovery shape.
//
// The manifest's source token is a random per-process ID plus the serving
// box's swap generation. It changes whenever the leader restarts or swaps
// indexes — exactly the events after which a follower's LSN cursor may
// describe a different history — and a token change tells the follower to
// throw its state away and re-bootstrap rather than risk a silent fork.

const replFormat = "sd-repl/v1"

// replWALChunkBytes caps the record bytes one /v1/repl/wal response carries.
// It bounds the leader's per-request buffer (built under the engine's
// checkpoint lock); a follower further behind than one chunk catches up
// over successive pulls (follower.go tails until it reaches the manifest
// position).
const replWALChunkBytes = 4 << 20

// Replication headers. X-SD-Repl-Lsns carries a comma-separated per-shard
// LSN vector: on follower /v1/topk responses it states the freshness of the
// snapshot that answered (computed before the answer, so it never
// over-reports), and on leader write acks it states a position at which the
// write is visible (computed after, so it never under-reports). The router
// compares the two vectors componentwise to decide whether a replica may
// answer a read-your-writes query.
const (
	headerReplLSNs   = "X-SD-Repl-Lsns"
	headerReplSource = "X-SD-Repl-Source"
	headerLSNLast    = "X-SD-Lsn-Last"
	headerLSNLeader  = "X-SD-Lsn-Leader"
	headerRecords    = "X-SD-Records"
	headerLeader     = "X-SD-Leader"

	// Role and generation ride on /healthz responses (both) and on every
	// write response (generation): the router's health probe learns a node's
	// role and fencing position for free, and its write path validates that
	// an ack came from the generation it routed under (promote.go).
	headerRole       = "X-SD-Role"
	headerGeneration = "X-SD-Generation"
)

// replSource is the index capability the leader endpoints need — implemented
// by SDIndex.
type replSource interface {
	ReplShards() int
	ShardLSNs() []uint64
	ReplSnapshot(si int, w io.Writer) (uint64, error)
	ReplWALTail(si int, from uint64, w io.Writer, maxBytes int) (sdquery.ReplTail, error)
}

// replApplier is the follower side: apply a leader's WAL stream to a shard.
type replApplier interface {
	ShardLSNs() []uint64
	ApplyReplWAL(si int, r io.Reader) (int, error)
}

// lsnVectorer is the minimal freshness surface (a strict subset of
// replSource, split out so header emission needs only one assertion).
type lsnVectorer interface {
	ShardLSNs() []uint64
}

// idInserter accepts caller-assigned global IDs — the surface a distributed
// writer needs for provably idempotent insert retries.
type idInserter interface {
	InsertWithID(id int, p []float64) error
	PointByID(id int) ([]float64, bool)
}

// totaler reports the size of the global ID space (indexed IDs are below it).
type totaler interface {
	Total() int
}

// replManifest is the /v1/repl/manifest document.
type replManifest struct {
	Format string   `json:"format"`
	Source string   `json:"source"`
	Shards int      `json:"shards"`
	Dims   int      `json:"dims"`
	LSNs   []uint64 `json:"lsns"`
}

// newServerID draws the random half of the replication source token.
func newServerID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a fixed token; source checks degrade to gen-only, which
		// still catches swaps (just not process restarts). Never happens on
		// any real platform.
		return "srv"
	}
	return hex.EncodeToString(b[:])
}

// replToken names the (process, swap generation) the served streams belong
// to. Any restart or swap changes it.
func (s *Server) replToken(box *indexBox) string {
	return s.serverID + "-" + strconv.FormatUint(box.gen, 10)
}

var errNoRepl = errors.New("serve: index does not export replication streams")

func (s *Server) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	box := s.box.Load()
	rs, ok := box.idx.(replSource)
	if !ok {
		writeError(w, http.StatusNotFound, errNoRepl)
		return
	}
	writeJSON(w, http.StatusOK, replManifest{
		Format: replFormat,
		Source: s.replToken(box),
		Shards: rs.ReplShards(),
		Dims:   box.dims,
		LSNs:   rs.ShardLSNs(),
	})
}

// replShard parses and bounds the shard query parameter.
func replShard(r *http.Request, rs replSource) (int, error) {
	si, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		return 0, fmt.Errorf("serve: shard parameter: %w", err)
	}
	if si < 0 || si >= rs.ReplShards() {
		return 0, fmt.Errorf("serve: shard %d of %d", si, rs.ReplShards())
	}
	return si, nil
}

func (s *Server) handleReplSegment(w http.ResponseWriter, r *http.Request) {
	box := s.box.Load()
	rs, ok := box.idx.(replSource)
	if !ok {
		writeError(w, http.StatusNotFound, errNoRepl)
		return
	}
	si, err := replShard(r, rs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerReplSource, s.replToken(box))
	if _, err := rs.ReplSnapshot(si, w); err != nil {
		// Bytes are already on the wire; the only honest failure signal left
		// is killing the connection so the follower sees a short stream (which
		// Load rejects) instead of a clean EOF.
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	box := s.box.Load()
	rs, ok := box.idx.(replSource)
	if !ok {
		writeError(w, http.StatusNotFound, errNoRepl)
		return
	}
	si, err := replShard(r, rs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: from parameter: %w", err))
		return
	}
	// Buffer the tail before writing headers: the gap verdict and the reach
	// of the stream are only known after the scan, and both belong in the
	// response head. The export is capped per response (a far-behind cursor
	// is caught up over several polls), so the buffer — which is built while
	// the engine holds its checkpoint lock — stays bounded no matter how
	// much log is retained.
	var buf bytes.Buffer
	tail, err := rs.ReplWALTail(si, from, &buf, replWALChunkBytes)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if tail.Gap {
		writeError(w, http.StatusGone, fmt.Errorf(
			"serve: wal tail after %d is not retained (leader at %d); re-bootstrap from a snapshot", from, tail.LeaderLSN))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerReplSource, s.replToken(box))
	w.Header().Set(headerLSNLast, strconv.FormatUint(tail.Last, 10))
	w.Header().Set(headerLSNLeader, strconv.FormatUint(tail.LeaderLSN, 10))
	w.Header().Set(headerRecords, strconv.Itoa(tail.Records))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// lsnCSV renders an LSN vector for the X-SD-Repl-Lsns header.
func lsnCSV(lsns []uint64) string {
	var b strings.Builder
	for i, v := range lsns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(v, 10))
	}
	return b.String()
}

// setReplLSNs emits the freshness header when the index exposes a vector.
func setReplLSNs(w http.ResponseWriter, idx Index) {
	if lv, ok := idx.(lsnVectorer); ok {
		w.Header().Set(headerReplLSNs, lsnCSV(lv.ShardLSNs()))
	}
}

// pointsEqual compares coordinates bit-for-bit. The router retries an insert
// with the identical JSON body, and JSON float decoding is deterministic, so
// a retried duplicate matches exactly; anything else is a genuine collision.
func pointsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
