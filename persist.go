package sdquery

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// Persistence: an SDIndex serializes to a versioned binary format and loads
// back bit-exactly — the reloaded index returns the same answers
// (ascending-ID tie-breaks included) and reports the same Bytes, because
// sealed segments round-trip their exact rows, global IDs, and tombstones,
// and their index structures rebuild deterministically. A persisted index
// therefore restarts without re-ingesting data or replaying updates:
// `cmd/sdquery -index file` serves queries straight from the file.
//
// The file's structural identity — roles, pairing layout, tree shape — is
// authoritative; SDOptions passed to the Load functions configure runtime
// behavior only (scheduler, plan cache, memtable threshold, compaction,
// workers). Structural options (pairing, branching, angles) are ignored on
// load.
//
// Older releases also wrote a sharded file kind: a shard header, a routing
// table, and one engine section per shard. A one-shard file holds exactly
// one engine section, so Load skips the header and table and loads it like
// a single-engine file; a file of more shards is refused with an error
// naming the shard count.

// fileMagic opens every persisted index; fileVersion versions the outer
// envelope (the core engine section carries its own version).
var fileMagic = [4]byte{'S', 'D', 'Q', 'X'}

const (
	fileVersion = 1

	kindSDIndex = 1
	kindSharded = 2 // written by older releases; read only (skipShardHeader)
)

func writeHeader(w io.Writer, kind uint8) error {
	if _, err := w.Write(fileMagic[:]); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, [2]uint8{fileVersion, kind})
}

func readHeader(r io.Reader) (kind uint8, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, fmt.Errorf("sdquery: load: %w", err)
	}
	if magic != fileMagic {
		return 0, fmt.Errorf("sdquery: load: not an SD-Index file (magic %q)", magic[:])
	}
	var vk [2]uint8
	if err := binary.Read(r, binary.LittleEndian, &vk); err != nil {
		return 0, fmt.Errorf("sdquery: load: %w", err)
	}
	if vk[0] != fileVersion {
		return 0, fmt.Errorf("sdquery: load: unsupported file version %d (have %d)", vk[0], fileVersion)
	}
	return vk[1], nil
}

// runtimeOptions projects an option list onto the knobs Load honors.
func runtimeOptions(opts []SDOption) (core.RuntimeOptions, sdConfig) {
	var cfg sdConfig
	for _, o := range opts {
		o(&cfg)
	}
	return core.RuntimeOptions{
		Scheduler:         cfg.sched,
		DisablePlanCache:  cfg.noPlanCache,
		MemtableSize:      cfg.memSize,
		DisableCompaction: cfg.noCompact,
		MaxSegmentRows:    cfg.maxSegRows,
	}, cfg
}

// Save serializes the index's current snapshot. Like every read path it is
// lock-free: concurrent queries, inserts, and compactions proceed
// unhindered, and the file captures exactly the rows live at the atomic
// snapshot acquisition.
func (s *SDIndex) Save(w io.Writer) error {
	if err := writeHeader(w, kindSDIndex); err != nil {
		return err
	}
	return s.eng.Save(w)
}

// LoadSDIndex reconstructs a saved SDIndex. See the package persistence
// notes for which options apply.
func LoadSDIndex(r io.Reader, opts ...SDOption) (*SDIndex, error) {
	br := bufio.NewReader(r)
	kind, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindSDIndex:
	case kindSharded:
		if err := skipShardHeader(br); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sdquery: load: unknown index kind %d", kind)
	}
	opt, cfg := runtimeOptions(opts)
	return cfg.open(func(pool core.Runner) (*core.Engine, error) {
		opt.Pool = pool
		return core.Load(br, opt)
	})
}

// skipShardHeader consumes an old sharded file's shard header and routing
// table, leaving r at its single engine section. Files of more than one
// shard hold several engine sections, which no longer load.
func skipShardHeader(r io.Reader) error {
	var shards, next uint32
	var rows uint64
	for _, v := range []any{&shards, &next, &rows} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("sdquery: load: %w", err)
		}
	}
	if shards == 0 || next >= shards || rows > 1<<31 {
		return fmt.Errorf("sdquery: load: implausible shard header (%d shards, cursor %d, %d rows)", shards, next, rows)
	}
	if shards > 1 {
		return fmt.Errorf("sdquery: load: file holds a %d-shard index written by an older release; only 1-shard files still load", shards)
	}
	// The routing table: one int32 shard number per global ID.
	if _, err := io.CopyN(io.Discard, r, int64(rows)*4); err != nil {
		return fmt.Errorf("sdquery: load: routing table: %w", err)
	}
	return nil
}

// Load reconstructs a persisted index — the Engine-typed form of
// LoadSDIndex, for tools that serve any persisted index (cmd/sdquery
// -index).
func Load(r io.Reader, opts ...SDOption) (Engine, error) {
	idx, err := LoadSDIndex(r, opts...)
	if err != nil {
		return nil, err
	}
	return idx, nil
}
