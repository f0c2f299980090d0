package sdquery

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// Durable index directories. A WithWAL index lives in a directory of its
// own:
//
//	dir/MANIFEST        JSON: format version, index kind, shard count
//	dir/shard-000/      the engine's WAL directory (CHECKPOINT + *.wal)
//
// The engine directory is a self-contained core WAL: a full-snapshot
// checkpoint plus the log tail of mutations since. The Open functions
// recover the index from the directory — the checkpoint loads, the tail
// replays idempotently, a torn tail truncates — so a crashed process
// restarts with exactly the acknowledged mutations (per the sync policy it
// ran with) and nothing else. The MANIFEST is written once at creation and
// never rewritten; it is the commit point of index creation, so Open on a
// directory whose creation crashed before the manifest landed fails
// cleanly instead of recovering half an index.
//
// Older releases also created "sharded" directories with one shard-NNN
// subdirectory per shard. A one-shard directory has exactly the layout
// above and opens like any other; a directory of more shards is refused
// with an error naming the shard count.

const (
	manifestName   = "MANIFEST"
	manifestFormat = "sdquery-wal/v1"

	manifestKindSDIndex = "sdindex"
	manifestKindSharded = "sharded" // written by older releases; read only
)

type manifest struct {
	Format string `json:"format"`
	Kind   string `json:"kind"`
	Shards int    `json:"shards"`
}

// engineWALDir names the engine's WAL directory under the index root (the
// name dates from the multi-shard layout and keeps old directories valid).
func engineWALDir(root string) string { return filepath.Join(root, "shard-000") }

// writeManifest creates the index directory and atomically installs its
// MANIFEST (tmp + fsync + rename + dir sync). It refuses a directory that
// already holds one: durable indexes are recovered with Open, never
// re-created over.
func writeManifest(cfg *sdConfig) error {
	ffs := cfg.walFS
	if ffs == nil {
		ffs = faultfs.OS{}
	}
	if err := ffs.MkdirAll(cfg.walDir); err != nil {
		return fmt.Errorf("sdquery: wal dir: %w", err)
	}
	path := filepath.Join(cfg.walDir, manifestName)
	if _, err := ffs.Stat(path); err == nil {
		return fmt.Errorf("sdquery: %s already holds a durable index; recover it with Open instead of creating over it", cfg.walDir)
	}
	data, err := json.Marshal(manifest{Format: manifestFormat, Kind: manifestKindSDIndex, Shards: 1})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := ffs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("sdquery: manifest: %w", err)
	}
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		ffs.Remove(tmp)
		return fmt.Errorf("sdquery: manifest: %w", err)
	}
	if err := ffs.Rename(tmp, path); err != nil {
		return fmt.Errorf("sdquery: manifest: %w", err)
	}
	if err := ffs.SyncDir(cfg.walDir); err != nil {
		return fmt.Errorf("sdquery: manifest: %w", err)
	}
	return nil
}

// checkManifest loads and validates dir's MANIFEST.
func checkManifest(ffs faultfs.FS, dir string) error {
	f, err := ffs.OpenFile(filepath.Join(dir, manifestName), os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("sdquery: open %s: %w", dir, err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("sdquery: open %s: manifest: %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("sdquery: open %s: manifest: %w", dir, err)
	}
	if m.Format != manifestFormat {
		return fmt.Errorf("sdquery: open %s: unsupported manifest format %q (have %s)", dir, m.Format, manifestFormat)
	}
	switch m.Kind {
	case manifestKindSDIndex, manifestKindSharded:
	default:
		return fmt.Errorf("sdquery: open %s: unknown index kind %q", dir, m.Kind)
	}
	if m.Shards < 1 {
		return fmt.Errorf("sdquery: open %s: implausible shard count %d", dir, m.Shards)
	}
	if m.Shards > 1 {
		return fmt.Errorf("sdquery: open %s: directory holds a %d-shard index written by an older release; only 1-shard directories still open", dir, m.Shards)
	}
	return nil
}

// OpenSDIndex recovers a durable SDIndex from its WithWAL directory:
// checkpoint load, idempotent log replay, torn-tail truncation. Structural
// options are in the checkpoint; the option list supplies runtime knobs
// (workers, scheduler, plan cache, memtable size, compaction) and the WAL
// knobs to run with from here on (WithSyncPolicy, WithSyncInterval,
// WithWALFS). WithWAL on the option list is ignored — dir is authoritative.
func OpenSDIndex(dir string, opts ...SDOption) (*SDIndex, error) {
	opt, cfg := runtimeOptions(opts)
	cfg.walDir = dir
	if cfg.walFS == nil {
		cfg.walFS = faultfs.OS{}
	}
	if err := checkManifest(cfg.walFS, dir); err != nil {
		return nil, err
	}
	return cfg.open(func(pool core.Runner) (*core.Engine, error) {
		opt.Pool = pool
		return core.Open(*cfg.walConfig(engineWALDir(dir)), opt)
	})
}

// Open recovers the durable index dir holds — the Engine-typed form of
// OpenSDIndex, for tools that serve any durable index (cmd/sdserver
// -wal-dir).
func Open(dir string, opts ...SDOption) (Engine, error) {
	idx, err := OpenSDIndex(dir, opts...)
	if err != nil {
		return nil, err
	}
	return idx, nil
}
