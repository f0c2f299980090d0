package core

// Write-ahead logging: crash safety for the memtable. Save/Load persists
// sealed segments, but every row between two seals lives only in memory —
// so each engine appends a checksummed, length-prefixed record per Insert
// and Remove to a log file before publishing the mutation, and Open replays
// the live tail over the last checkpoint. The log is structured for the
// three failure modes recovery must absorb:
//
//   - Torn tails. A crash mid-append leaves a half-written record. Every
//     record carries a CRC over its length, LSN, and payload; replay stops
//     at the first record that fails the check and physically truncates the
//     file there. A torn tail is never an error — it is the expected shape
//     of a crashed log.
//   - Duplicated records. A failed append is repaired (truncate the torn
//     prefix, rewrite the record) or, if the caller retried at a higher
//     level, appended again. Every record carries the mutation's LSN and
//     replay is idempotent: a record whose LSN is not exactly the successor
//     of the last applied LSN is skipped (duplicate) or treated as
//     corruption (gap).
//   - Mid-rotation crashes. Log files seal in lockstep with memtable seals
//     (compaction rotates to a fresh file) and a checkpoint retires files
//     whose records are all covered; a crash between those steps leaves
//     stale or missing files, which recovery tolerates: fully-covered files
//     replay as no-ops, and a missing final file just means the tail was
//     empty.
//
// Group commit: writers append under the log's mutex (cheap memory copies),
// then wait for durability OUTSIDE the engine's writer lock. A single
// committer goroutine fsyncs once per commit window; every writer whose
// record landed before that fsync shares it. Under SyncAlways an insert's
// latency includes one (shared) fsync; under SyncInterval the committer
// fsyncs on a timer and acknowledgment only promises the record is in the
// OS's hands; under SyncNever only rotation, checkpointing, and Close sync.
//
// Failure policy: a write or fsync error poisons the log (sticky ErrWAL).
// Mutations fail fast from then on — the engine's data stays queryable, and
// the serving layer degrades to read-only instead of crashing.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// ErrWAL marks a sticky write-ahead-log failure: the record (or a
// subsequent fsync) could not be made durable, and every later mutation on
// the engine fails fast with the same error. Reads are unaffected. Check
// with errors.Is.
var ErrWAL = errors.New("core: write-ahead log failure")

// SyncPolicy selects when appended WAL records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before a mutation is acknowledged. One fsync covers
	// every writer blocked in the same commit window (group commit), so
	// concurrent writers share the cost.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges after the record is written to the OS and
	// fsyncs on a timer: a process crash loses nothing, a power failure
	// loses at most the last interval.
	SyncInterval
	// SyncNever leaves fsync to rotation, checkpointing, and Close.
	SyncNever
)

// String names the policy (the -sync flag values).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// WALConfig attaches a write-ahead log to an engine.
type WALConfig struct {
	// Dir holds the engine's log files and checkpoint. Required.
	Dir string
	// FS is the filesystem the log talks to; nil selects the real one.
	// Tests inject faultfs.Mem to crash and fault the log deterministically.
	FS faultfs.FS
	// Policy is the fsync policy. Default SyncAlways.
	Policy SyncPolicy
	// Interval is SyncInterval's fsync cadence. Default 100ms.
	Interval time.Duration
	// CheckpointBytes triggers a background checkpoint (write the full
	// snapshot, retire covered log files) once sealed log files exceed this
	// many bytes. Default 4 MiB.
	CheckpointBytes int64
}

// CommitWait blocks until the mutation that returned it is durable per the
// engine's sync policy; it returns the commit window's error if the fsync
// failed. A nil CommitWait means there is nothing to wait for.
type CommitWait func() error

// WALStats is the observable state of an engine's write-ahead log.
type WALStats struct {
	// Enabled reports whether the engine has a WAL at all.
	Enabled bool
	// Appends counts records written; Fsyncs counts fsync calls issued
	// (group commit makes Fsyncs ≤ Appends under concurrency); Bytes counts
	// record bytes appended.
	Appends, Fsyncs, Bytes uint64
	// ReplayRecords counts records applied during Open's recovery.
	ReplayRecords uint64
	// Rotations counts log-file seals, Checkpoints completed checkpoints.
	Rotations, Checkpoints uint64
	// LSN is the last applied mutation's log sequence number.
	LSN uint64
	// Err is the sticky failure that degraded the log, nil when healthy.
	Err error
}

const (
	walHeaderLen = 8       // file header: magic + version
	recHeaderLen = 16      // crc32 u32 | payload len u32 | lsn u64
	maxWALRecord = 1 << 24 // payload sanity cap: larger lengths are corruption
	opInsert     = 1
	opRemove     = 2

	ckptName = "CHECKPOINT"
)

var (
	walMagic   = [8]byte{'S', 'D', 'W', 'L', 0, 0, 0, 1}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// walFile describes a sealed (no longer written) log file.
type walFile struct {
	seq    uint64
	maxLSN uint64
	bytes  int64
}

// walLog is one engine's group-committed log.
type walLog struct {
	fs       faultfs.FS
	dir      string
	policy   SyncPolicy
	interval time.Duration
	ckptBy   int64

	mu        sync.Mutex
	f         faultfs.File
	seq       uint64
	fileBytes int64
	maxLSN    uint64 // highest LSN in the current file (0 = empty)
	sealed    []walFile
	batch     *commitBatch
	dirty     bool // written since last fsync
	failed    error

	ckptMu sync.Mutex // serializes checkpoints

	buf  []byte // record scratch, reused under mu
	wake chan struct{}
	quit chan struct{}
	done chan struct{}
	stop sync.Once

	appends, fsyncs, bytes, replayed, rotations, checkpoints atomic.Uint64
}

// commitBatch is one group-commit window: every writer whose record landed
// while the window was open shares its fsync and its error.
type commitBatch struct {
	done chan struct{}
	err  error
}

func (wc *WALConfig) withDefaults() WALConfig {
	c := *wc
	if c.FS == nil {
		c.FS = faultfs.OS{}
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 4 << 20
	}
	return c
}

func newWALLog(c WALConfig) *walLog {
	return &walLog{
		fs:       c.FS,
		dir:      c.Dir,
		policy:   c.Policy,
		interval: c.Interval,
		ckptBy:   c.CheckpointBytes,
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (l *walLog) pathFor(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%09d.wal", seq))
}

// openSeq creates log file seq and writes its header. Caller holds mu (or
// is single-threaded setup).
func (l *walLog) openSeq(seq uint64) (faultfs.File, error) {
	f, err := l.fs.OpenFile(l.pathFor(seq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// start opens the current log file (seq) and launches the committer.
func (l *walLog) start(seq uint64) error {
	f, err := l.openSeq(seq)
	if err != nil {
		return fmt.Errorf("%w: open %s: %v", ErrWAL, l.pathFor(seq), err)
	}
	l.f = f
	l.seq = seq
	l.fileBytes = walHeaderLen
	go l.run()
	return nil
}

// poison records the first hard failure; later mutations fail fast with it.
// Caller holds mu.
func (l *walLog) poison(op string, err error) error {
	l.failed = fmt.Errorf("%w: %s: %v", ErrWAL, op, err)
	return l.failed
}

// appendInsert logs an insert. Called under the engine's writer lock; the
// returned CommitWait must be awaited after releasing it.
func (l *walLog) appendInsert(lsn uint64, id int, p []float64) (CommitWait, error) {
	return l.append(lsn, func(buf []byte) []byte {
		buf = append(buf, opInsert)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		for _, c := range p {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
		}
		return buf
	})
}

// appendRemove logs a remove.
func (l *walLog) appendRemove(lsn uint64, id int) (CommitWait, error) {
	return l.append(lsn, func(buf []byte) []byte {
		buf = append(buf, opRemove)
		return binary.LittleEndian.AppendUint64(buf, uint64(id))
	})
}

func (l *walLog) append(lsn uint64, payload func([]byte) []byte) (CommitWait, error) {
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return nil, err
	}
	buf := append(l.buf[:0], make([]byte, 8)...) // crc + len placeholders
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = payload(buf)
	l.buf = buf
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(buf)-recHeaderLen))
	binary.LittleEndian.PutUint32(buf[0:4], crc32.Checksum(buf[4:], castagnoli))

	start := l.fileBytes
	if n, err := l.f.Write(buf); err != nil || n < len(buf) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// Repair-and-retry: chop whatever torn prefix landed, then write the
		// whole record once more. Leaving the torn prefix in place would make
		// replay stop there and discard this (and every later) record; the
		// truncate keeps the log physically clean. If repair fails too, the
		// log is poisoned and the engine degrades to read-only.
		if terr := l.fs.Truncate(l.pathFor(l.seq), start); terr != nil {
			perr := l.poison("append", fmt.Errorf("%v (repair truncate: %v)", err, terr))
			l.mu.Unlock()
			return nil, perr
		}
		if n, err = l.f.Write(buf); err != nil || n < len(buf) {
			if err == nil {
				err = io.ErrShortWrite
			}
			perr := l.poison("append retry", err)
			l.mu.Unlock()
			return nil, perr
		}
	}
	l.fileBytes = start + int64(len(buf))
	l.maxLSN = lsn
	l.dirty = true
	l.appends.Add(1)
	l.bytes.Add(uint64(len(buf)))

	if l.policy != SyncAlways {
		l.mu.Unlock()
		return nil, nil
	}
	b := l.batch
	if b == nil {
		b = &commitBatch{done: make(chan struct{})}
		l.batch = b
	}
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return func() error { <-b.done; return b.err }, nil
}

// run is the committer: it owns the fsync that closes each commit window.
func (l *walLog) run() {
	defer close(l.done)
	var tickC <-chan time.Time
	if l.policy == SyncInterval {
		t := time.NewTicker(l.interval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-l.quit:
			l.flushWindow()
			return
		case <-l.wake:
			l.flushWindow()
		case <-tickC:
			l.flushWindow()
		}
	}
}

// flushWindow closes the open commit window: one fsync covers every record
// appended since the last one, and every waiter in the window shares the
// outcome.
func (l *walLog) flushWindow() {
	l.mu.Lock()
	b := l.batch
	l.batch = nil
	err := l.failed
	if err == nil && l.dirty && l.f != nil {
		if serr := l.f.Sync(); serr != nil {
			err = l.poison("fsync", serr)
		} else {
			l.dirty = false
			l.fsyncs.Add(1)
		}
	}
	l.mu.Unlock()
	if b != nil {
		b.err = err
		close(b.done)
	}
}

// sync force-fsyncs the current file regardless of policy (the drain path).
func (l *walLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.poison("fsync", err)
	}
	l.dirty = false
	l.fsyncs.Add(1)
	return nil
}

// rotate seals the current log file and opens the next — called when the
// compactor seals the memtable, so sealed segments and sealed log files
// advance in lockstep and checkpoints can retire whole files.
func (l *walLog) rotate() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil || l.f == nil || l.maxLSN == 0 {
		return // degraded, closed, or nothing logged since the last seal
	}
	if l.dirty {
		if err := l.f.Sync(); err != nil {
			l.poison("rotate fsync", err)
			return
		}
		l.dirty = false
		l.fsyncs.Add(1)
	}
	l.f.Close()
	l.sealed = append(l.sealed, walFile{seq: l.seq, maxLSN: l.maxLSN, bytes: l.fileBytes})
	f, err := l.openSeq(l.seq + 1)
	if err != nil {
		l.f = nil
		l.poison("rotate open", err)
		return
	}
	l.f = f
	l.seq++
	l.fileBytes = walHeaderLen
	l.maxLSN = 0
	l.rotations.Add(1)
}

// sealedBytes is the volume of sealed, unretired log — the checkpoint
// trigger's input.
func (l *walLog) sealedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.sealed {
		n += s.bytes
	}
	return n
}

// retire deletes sealed log files entirely covered by a checkpoint at lsn.
func (l *walLog) retire(lsn uint64) {
	l.mu.Lock()
	var del []uint64
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.maxLSN <= lsn {
			del = append(del, s.seq)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	for _, seq := range del {
		l.fs.Remove(l.pathFor(seq))
	}
	if len(del) > 0 {
		l.fs.SyncDir(l.dir)
	}
}

// close stops the committer, flushes, and closes the current file.
func (l *walLog) close() error {
	l.stop.Do(func() {
		close(l.quit)
		<-l.done
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.failed
	}
	var err error
	if l.dirty && l.failed == nil {
		if err = l.f.Sync(); err != nil {
			err = l.poison("close fsync", err)
		} else {
			l.dirty = false
			l.fsyncs.Add(1)
		}
	}
	cerr := l.f.Close()
	l.f = nil
	if err == nil {
		err = l.failed
	}
	if err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Engine integration.

// attachWAL wires a fresh (empty-log) WAL under an engine that was just
// built: it writes the initial checkpoint — the WAL directory invariantly
// holds a loadable checkpoint from the first moment on — and opens log file
// seq for appends.
func (e *Engine) attachWAL(c WALConfig, seq uint64) error {
	c = c.withDefaults()
	if c.Dir == "" {
		return fmt.Errorf("%w: no directory configured", ErrWAL)
	}
	if err := c.FS.MkdirAll(c.Dir); err != nil {
		return fmt.Errorf("%w: mkdir: %v", ErrWAL, err)
	}
	if _, err := c.FS.Stat(filepath.Join(c.Dir, ckptName)); err == nil {
		return fmt.Errorf("%w: %s already holds a checkpoint; recover it with Open instead of overwriting", ErrWAL, c.Dir)
	}
	l := newWALLog(c)
	e.wal = l
	if err := e.Checkpoint(); err != nil {
		e.wal = nil
		return err
	}
	if err := l.start(seq); err != nil {
		e.wal = nil
		return err
	}
	return nil
}

// AttachWAL wires a write-ahead log under an engine that has none — the
// promotion path: a replica built from snapshot streams (no WAL) is elected
// leader and must become durable before it accepts writes. The directory
// must be fresh (attach writes the initial checkpoint, which covers every
// mutation applied so far, and refuses a directory already holding one);
// subsequent mutations log from the engine's current LSN onward, so a
// follower of the promoted engine sees one contiguous history. The caller
// must guarantee no mutations are in flight during the attach.
func (e *Engine) AttachWAL(c WALConfig) error {
	if e.wal != nil {
		return fmt.Errorf("%w: engine already has a write-ahead log", ErrWAL)
	}
	return e.attachWAL(c, 1)
}

// Checkpoint writes the engine's current snapshot to the WAL directory
// (atomically: tmp + fsync + rename + dir sync) and retires every sealed
// log file the checkpoint covers. The background compactor triggers it once
// sealed log volume passes WALConfig.CheckpointBytes; it is also safe to
// call explicitly. No-op without a WAL.
func (e *Engine) Checkpoint() error {
	l := e.wal
	if l == nil {
		return nil
	}
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	sn := e.snap.Load()
	tmp := filepath.Join(l.dir, ckptName+".tmp")
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	err = e.saveSnapshot(f, sn)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, ckptName)); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	l.checkpoints.Add(1)
	l.retire(sn.walLSN)
	return nil
}

// maybeCheckpoint runs a checkpoint when enough sealed log has piled up.
// Best-effort: on failure the log files stay put and the next trigger
// retries. Called from the compactor.
func (e *Engine) maybeCheckpoint() {
	if e.wal == nil || e.wal.sealedBytes() < e.wal.ckptBy {
		return
	}
	e.Checkpoint()
}

// Sync force-fsyncs the WAL regardless of sync policy — the drain path: a
// server shutting down under SyncInterval/SyncNever calls it so every
// acknowledged mutation survives power loss too. No-op without a WAL.
func (e *Engine) Sync() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.sync()
}

// Close flushes and closes the engine's WAL. The engine stays queryable
// (reads never touch the log) but every later mutation fails. No-op without
// a WAL.
func (e *Engine) Close() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.close()
}

// WALStats reports the WAL's counters and health. Engines without a WAL
// report Enabled=false.
func (e *Engine) WALStats() WALStats {
	l := e.wal
	if l == nil {
		return WALStats{}
	}
	st := WALStats{
		Enabled:       true,
		Appends:       l.appends.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Bytes:         l.bytes.Load(),
		ReplayRecords: l.replayed.Load(),
		Rotations:     l.rotations.Load(),
		Checkpoints:   l.checkpoints.Load(),
		LSN:           e.snap.Load().walLSN,
	}
	l.mu.Lock()
	st.Err = l.failed
	l.mu.Unlock()
	return st
}

// Total reports the engine's global-ID-space size: every past insert's ID is
// below it, and the next caller-assigned ID must not be.
func (e *Engine) Total() int { return e.snap.Load().total }

// Open recovers a WAL-backed engine from its directory: load the
// checkpoint, replay the log tail (idempotently, by LSN), truncate at the
// first corrupt record, and come back up appending to a fresh log file.
// Recovery never fails on a torn tail — that is the normal shape of a
// crashed log; it fails only when the directory is structurally unusable
// (no checkpoint, unreadable checkpoint).
func Open(c WALConfig, opt RuntimeOptions) (*Engine, error) {
	c = c.withDefaults()
	if c.Dir == "" {
		return nil, fmt.Errorf("%w: no directory configured", ErrWAL)
	}
	ckf, err := c.FS.OpenFile(filepath.Join(c.Dir, ckptName), os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", c.Dir, err)
	}
	e, err := Load(bufio.NewReader(ckf), opt)
	ckf.Close()
	if err != nil {
		return nil, fmt.Errorf("core: open %s: checkpoint: %w", c.Dir, err)
	}
	ckptLSN := e.snap.Load().walLSN

	l := newWALLog(c)
	seqs, err := listWALFiles(c.FS, c.Dir)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", c.Dir, err)
	}
	if err := e.replayWAL(l, seqs); err != nil {
		return nil, err
	}
	nextSeq := uint64(1)
	if n := len(seqs); n > 0 {
		nextSeq = seqs[n-1] + 1
	}
	e.wal = l
	if err := l.start(nextSeq); err != nil {
		e.wal = nil
		return nil, err
	}
	// Files fully covered by the checkpoint we just loaded may be left over
	// from a crash between checkpoint install and retirement — drop them now.
	l.retire(ckptLSN)
	if e.needsCompaction() {
		e.kickCompactor()
	}
	return e, nil
}

// listWALFiles returns the directory's log-file sequence numbers, ascending.
func listWALFiles(ffs faultfs.FS, dir string) ([]uint64, error) {
	names, err := ffs.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(name, "%d.wal", &seq); err == nil && name == fmt.Sprintf("%09d.wal", seq) {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

// replayWAL applies the log tail to a checkpoint-loaded engine, populating
// l.sealed with the scanned files. At the first corruption it truncates
// that file at the last valid record and deletes every later file — nothing
// is ever replayed past a corruption.
func (e *Engine) replayWAL(l *walLog, seqs []uint64) error {
	applied := e.snap.Load().walLSN
	for i, seq := range seqs {
		path := l.pathFor(seq)
		end, corrupt, fileMax, err := e.replayFile(l, path, &applied)
		if err != nil {
			return err
		}
		if fileMax > 0 {
			l.sealed = append(l.sealed, walFile{seq: seq, maxLSN: fileMax, bytes: end})
		}
		if corrupt {
			// Corruption: physically chop the tail, drop every later file
			// (their records are past the corruption and cannot be trusted
			// to be a prefix of the acknowledged history), and stop.
			if terr := l.fs.Truncate(path, end); terr != nil {
				return fmt.Errorf("%w: truncate torn tail of %s: %v", ErrWAL, path, terr)
			}
			for _, later := range seqs[i+1:] {
				l.fs.Remove(l.pathFor(later))
			}
			if derr := l.fs.SyncDir(l.dir); derr != nil {
				return fmt.Errorf("%w: sync dir: %v", ErrWAL, derr)
			}
			return nil
		}
	}
	return nil
}

// replayFile replays one log file. end is the byte offset of the last valid
// record's end, corrupt reports whether a bad record (torn, checksum
// mismatch, implausible length, LSN gap) was found past it, and fileMax is
// the highest LSN seen among valid records (0 = none). The error return is
// for infrastructure failures only (the file cannot be opened), never
// corruption.
func (e *Engine) replayFile(l *walLog, path string, applied *uint64) (end int64, corrupt bool, fileMax uint64, err error) {
	f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, false, 0, fmt.Errorf("%w: open %s: %v", ErrWAL, path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)

	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || hdr != walMagic {
		return 0, true, 0, nil // torn or alien header: the whole file is tail
	}
	off := int64(walHeaderLen)
	var rec [recHeaderLen]byte
	payload := make([]byte, 0, 256)
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				return off, false, fileMax, nil // clean end at a record boundary
			}
			return off, true, fileMax, nil // torn header
		}
		plen := binary.LittleEndian.Uint32(rec[4:8])
		if plen > maxWALRecord {
			return off, true, fileMax, nil // implausible length: corruption
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, true, fileMax, nil // torn payload
		}
		crc := crc32.Checksum(rec[4:], castagnoli)
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != binary.LittleEndian.Uint32(rec[0:4]) {
			return off, true, fileMax, nil // bad checksum
		}
		lsn := binary.LittleEndian.Uint64(rec[8:16])
		switch {
		case lsn <= *applied:
			// Duplicate (retried append, or a file fully covered by the
			// checkpoint): already applied, skip.
		case lsn == *applied+1:
			if !e.applyRecord(payload, lsn) {
				// CRC-valid but semantically invalid (colliding corruption):
				// treat exactly like a bad checksum.
				return off, true, fileMax, nil
			}
			*applied = lsn
			l.replayed.Add(1)
		default:
			return off, true, fileMax, nil // LSN gap: records are missing, stop
		}
		if lsn > fileMax {
			fileMax = lsn
		}
		off += recHeaderLen + int64(plen)
	}
}

// applyRecord applies one valid WAL record to the engine, reporting whether
// its payload was semantically sound.
func (e *Engine) applyRecord(payload []byte, lsn uint64) bool {
	if len(payload) < 9 {
		return false
	}
	op, id := payload[0], binary.LittleEndian.Uint64(payload[1:9])
	switch op {
	case opInsert:
		if len(payload) != 9+8*e.dims || id > math.MaxInt32 {
			return false
		}
		p := make([]float64, e.dims)
		for d := range p {
			p[d] = math.Float64frombits(binary.LittleEndian.Uint64(payload[9+8*d:]))
		}
		return e.replayInsert(int(id), p, lsn)
	case opRemove:
		if len(payload) != 9 || id > math.MaxInt32 {
			return false
		}
		e.replayRemove(int(id), lsn)
		return true
	}
	return false
}

// replayInsert applies a recovered insert without logging it again.
func (e *Engine) replayInsert(id int, p []float64, lsn uint64) bool {
	if validRow(p, e.dims) != nil {
		return false
	}
	e.wrMu.Lock()
	defer e.wrMu.Unlock()
	cur := e.snap.Load()
	if id < cur.total {
		return false // IDs are assigned ascending; a replayed ID below the space is corruption
	}
	e.publishInsert(cur, int32(id), p, lsn)
	return true
}

// replayRemove applies a recovered remove. A remove of an absent or already
// dead row still advances the LSN (the acknowledged history said "not
// removed", which replay reproduces exactly).
func (e *Engine) replayRemove(id int, lsn uint64) {
	e.wrMu.Lock()
	defer e.wrMu.Unlock()
	cur := e.snap.Load()
	if !e.removeLocked(cur, id, lsn) {
		ns := *cur
		ns.epoch = cur.epoch + 1
		ns.walLSN = lsn
		e.snap.Store(&ns)
	}
}
