package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// SQLiteStore file format. The container has no SQL driver and the project
// vendors no dependencies, so "sqlite:" is served by a dependency-free
// single-file store with the properties the topology actually needs from
// SQLite: one schema-versioned file on a shared mount, WAL-style crash
// recovery (a torn tail is detected by checksum and rolled back on the next
// open or write), and multi-process safety via advisory file locks. The
// format is an append-only record log:
//
//	header:  magic "CVK1" | schema uint32 (little-endian)
//	record:  kind byte | uvarint keylen | key | uvarint vallen | value |
//	         crc32c uint32 over everything before it in the record
//
// Record kinds are campaign, result, job, and lease; the latest record for
// a (kind, key) pair wins, and a lease record with an empty owner is a
// release. The log is never rewritten in place, so concurrent handles only
// ever contend on where the tail is — which the per-batch flock
// serialises.
const (
	sqliteMagic  = "CVK1"
	sqliteSchema = uint32(1)

	recCampaign = byte(1)
	recResult   = byte(2)
	recJob      = byte(3)
	recLease    = byte(4)
)

// sqliteMaxRecord bounds one record's key and its value — far above any
// real record, low enough that a corrupted length prefix cannot make a
// reader attempt a multi-gigabyte allocation. It is a variable only so
// tests can exercise the bound without 64 MiB records.
var sqliteMaxRecord uint64 = 64 << 20

// SQLiteStore is the shared single-file Store: the record layer (records)
// over a log. Every handle — in this process or another — keeps the
// layer's tables at the log's latest state and catches up by scanning the
// log's unread tail before each operation, under a shared or exclusive
// advisory lock on the file (reads skip even that when a stat shows the
// file ending at the handle's scan offset). Mutations are group-committed:
// concurrent transactions queue, and a leader drains the queue under one
// exclusive lock, appends every staged record with one WriteAt, and fsyncs
// once for the whole batch — callers are acknowledged only after that
// fsync, so an acknowledged write is durable and a torn one is rolled back
// (truncated by the next writer), never served. Only a torn tail is
// truncated: a read that fails fails the operation and leaves the file as
// it is. The single exception to the fsync is a batch of nothing but lease
// records, which commits without it: lease durability is worthless (a
// crash losing a lease is the TTL-steal path working as designed) and
// sibling processes read the page cache, not the platter. The log is
// append-only and is not compacted; for the record volumes the engine
// writes (one campaign record per state transition, one result, one record
// per job) growth is modest, and a fresh file starts a new log.
//
// Every handle holds a shared flock on PATH.lock until Close or its
// process's death. It is a second file because a long-lived lock on the
// log would block the log's own batch flocks, and a flock, not an fcntl
// lock, because two handles in one process must see each other.
type SQLiteStore struct {
	records // the tables, and mu, which also guards the log state below

	f *os.File

	// lock is PATH.lock, held shared until Close drops it.
	lock *os.File

	// scanned is the log offset up to which the tables reflect the file:
	// the end of the last good record. A read whose fstat size matches it
	// skips the flock/scan round-trip entirely (the log below scanned is
	// immutable).
	scanned int64

	// qmu guards the group-commit queue. Transactions enqueue here; the
	// first enqueuer becomes the leader and commits batches until the
	// queue drains.
	qmu     sync.Mutex
	queue   []*storeTxn
	leading bool
	closed  bool

	// fsyncs counts fsync(2) calls over the store's lifetime — the cost
	// the group committer exists to collapse. Always maintained;
	// fsyncCtr/batchSize mirror it into a registry once instrumented.
	fsyncs     atomic.Uint64
	rescans    atomic.Uint64 // reads that had to take the flock and re-scan
	fsyncCtr   *obs.Counter
	batchSize  *obs.Histogram
	cleanReads *obs.Counter // reads served on refresh's one-fstat path

	// syncHook, when set (tests only), replaces the fsync so commit
	// failures can be injected between staging and acknowledgement.
	syncHook func() error
}

// storeTxn is one mutation queued for the group committer: the transaction
// body, and the channel its caller blocks on until the batch holding it is
// durable (or failed).
type storeTxn struct {
	run  func(v *txnView) error
	err  error
	done chan struct{}
}

// OpenSQLiteStore opens (creating if needed) the store file at path, in a
// directory that must exist. An opener that wins PATH.lock exclusively has
// the file alone, so every campaign still running is a dead process's: it
// finalises them (recoverInterrupted) before it shares the lock. Any other
// opener waits for the shared lock, past a first opener's recovery, and
// recovers nothing, since a running record may be a live peer's campaign.
// logf receives corruption warnings; nil means the standard logger.
func OpenSQLiteStore(path string, logf func(format string, args ...any)) (*SQLiteStore, error) {
	if logf == nil {
		logf = log.Printf
	}
	lock, err := os.OpenFile(path+".lock", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: opening store lock: %w", err)
	}
	alone, err := flockTryExclusive(lock)
	if err == nil && !alone {
		err = flockShared(lock)
	}
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("engine: locking %s: %w", lock.Name(), err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("engine: opening store file: %w", err)
	}
	s := &SQLiteStore{f: f, lock: lock}
	s.init(s, path, logf)
	err = s.initHeader()
	if err == nil && alone {
		// Converting the lock may release it for an instant; an opener
		// that wins it then finds nothing left running.
		if err = recoverInterrupted(s); err == nil {
			if err = flockShared(lock); err != nil {
				err = fmt.Errorf("engine: locking %s: %w", lock.Name(), err)
			}
		}
	}
	if err != nil {
		s.Close() // drops the lock too
		return nil, err
	}
	return s, nil
}

// Path returns the store's file path.
func (s *SQLiteStore) Path() string { return s.path }

// Fsyncs returns how many fsync(2) calls the store has issued since open —
// one per committed batch plus header initialisation. The benchmark suite
// divides it by executed jobs.
func (s *SQLiteStore) Fsyncs() uint64 { return s.fsyncs.Load() }

// instrument registers the record layer's instruments, the group
// committer's fsync and batch-size meters and the clean-read counter on r;
// engine.New calls it before first use. A nil registry leaves them
// disabled.
func (s *SQLiteStore) instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	s.records.instrument(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fsyncCtr = r.Counter("cherivoke_store_fsyncs_total",
		"fsync(2) calls issued by the shared single-file store (one per committed batch).")
	s.batchSize = r.Histogram("cherivoke_store_batch_size",
		"Mutations folded into one group-committed store batch.",
		obs.ExpBuckets(1, 2, 8))
	s.cleanReads = r.Counter("cherivoke_store_clean_reads_total",
		"Store reads served from the in-memory tables after one fstat, with no flock or log rescan.")
}

// Close implements Store: it releases the store's file handle and its
// lock. Operations after Close fail.
func (s *SQLiteStore) Close() error {
	s.qmu.Lock()
	s.closed = true
	s.qmu.Unlock()
	// Taking mu waits out a batch commit in flight; a leader that grabs a
	// later batch fails cleanly on the closed descriptor.
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.f.Close()
	s.lock.Close() // closing the descriptor drops its flock
	return err
}

// initHeader writes the file header if the file is empty, or validates it
// otherwise, under an exclusive lock so two processes creating the same
// file serialise.
func (s *SQLiteStore) initHeader() error {
	if err := flockExclusive(s.f); err != nil {
		return fmt.Errorf("engine: locking store file: %w", err)
	}
	defer funlock(s.f)
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("engine: store file: %w", err)
	}
	if st.Size() == 0 {
		var hdr [8]byte
		copy(hdr[:4], sqliteMagic)
		binary.LittleEndian.PutUint32(hdr[4:], sqliteSchema)
		if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("engine: writing store header: %w", err)
		}
		if err := s.sync(); err != nil {
			return fmt.Errorf("engine: writing store header: %w", err)
		}
		s.scanned = int64(len(hdr))
		return nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, 8), hdr[:]); err != nil {
		return fmt.Errorf("engine: %s is not a cherivoke store file: %w", s.path, err)
	}
	if string(hdr[:4]) != sqliteMagic {
		return fmt.Errorf("engine: %s is not a cherivoke store file (bad magic)", s.path)
	}
	if got := binary.LittleEndian.Uint32(hdr[4:]); got != sqliteSchema {
		return fmt.Errorf("engine: %s has store schema %d, this binary speaks %d", s.path, got, sqliteSchema)
	}
	s.scanned = int64(len(hdr))
	return nil
}

// sync flushes the file, counting the fsync. syncHook substitutes failures
// in tests.
func (s *SQLiteStore) sync() error {
	s.fsyncs.Add(1)
	s.fsyncCtr.Inc()
	if s.syncHook != nil {
		return s.syncHook()
	}
	return s.f.Sync()
}

// castagnoli is the CRC-32C table of every record's checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes one record into buf-appendable form.
func appendRecord(dst []byte, kind byte, key string, val []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// catchUp folds the log's unread tail, from s.scanned to the end of the
// file, into the tables in one pass over a buffered reader. A torn tail
// stops the scan with s.scanned at the last good boundary, which tornAt
// reports so a writer (holding the exclusive lock) can truncate the tail
// away: the crash-recovery "WAL replay". A failed read is an error, never
// a torn tail, so nothing is truncated on its account. Callers must hold
// at least a shared flock on s.f.
func (s *SQLiteStore) catchUp() (tornAt int64, torn bool, err error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("engine: store file: %w", err)
	}
	left := st.Size() - s.scanned
	if left <= 0 {
		return 0, false, nil
	}
	br := bufio.NewReaderSize(io.NewSectionReader(s.f, s.scanned, left), int(min(left, 64<<10)))
	for left > 0 {
		kind, key, val, n, err := readRecord(br, left)
		switch {
		case err != nil:
			return 0, false, err
		case n == 0:
			return s.scanned, true, nil
		}
		s.apply(kind, key, val)
		s.scanned += n
		left -= n
	}
	return 0, false, nil
}

// readRecord decodes the record at the front of br, which holds the log's
// last left bytes, and returns its length n. The record is torn, and n 0,
// when a declared length passes sqliteMaxRecord or the end of the log, a
// length prefix does not end inside the log, fewer than four checksum
// bytes remain, or the checksum is bad. err is a failed read, never a torn
// record.
func readRecord(br *bufio.Reader, left int64) (kind byte, key string, val []byte, n int64, err error) {
	b, err := br.Peek(1)
	if err != nil {
		return 0, "", nil, 0, err
	}
	kind, n = b[0], 1
	sum := crc32.Update(0, castagnoli, b)
	_, _ = br.Discard(1) // peeked: cannot fail
	var fields [2][]byte // the key, then the value
	for i := range fields {
		b, err := br.Peek(int(min(left-n, binary.MaxVarintLen64)))
		if err != nil {
			return 0, "", nil, 0, err
		}
		l, k := binary.Uvarint(b)
		if k <= 0 || l > sqliteMaxRecord || l > uint64(left-n-int64(k)) {
			return 0, "", nil, 0, nil
		}
		sum = crc32.Update(sum, castagnoli, b[:k])
		_, _ = br.Discard(k) // k <= len(b), peeked: cannot fail
		fields[i] = make([]byte, l)
		if _, err := io.ReadFull(br, fields[i]); err != nil {
			return 0, "", nil, 0, err
		}
		sum = crc32.Update(sum, castagnoli, fields[i])
		n += int64(k) + int64(l)
	}
	if left-n < 4 {
		return 0, "", nil, 0, nil
	}
	if b, err = br.Peek(4); err != nil {
		return 0, "", nil, 0, err
	}
	if binary.LittleEndian.Uint32(b) != sum {
		return 0, "", nil, 0, nil
	}
	_, _ = br.Discard(4) // peeked: cannot fail
	return kind, string(fields[0]), fields[1], n + 4, nil
}

// refresh implements txnLog, catching the tables up with the log. The clean
// fast path is one fstat: when the file size equals the handle's scan
// offset, nothing was appended — the log below that offset is immutable
// (appends only grow the file; truncation only removes torn bytes past
// every validated record boundary), so the tables are current and the
// flock/scan round-trip is skipped. A torn tail observed under the shared
// lock is not folded in; reads rescan it until a writer truncates it. A
// failed read is an ErrStore error.
func (s *SQLiteStore) refresh() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrStore, s.path, err)
	}
	if st.Size() == s.scanned {
		s.cleanReads.Inc()
		return nil
	}
	s.rescans.Add(1)
	if err := flockShared(s.f); err != nil {
		return fmt.Errorf("%w: locking %s: %v", ErrStore, s.path, err)
	}
	defer funlock(s.f)
	if _, _, err := s.catchUp(); err != nil {
		return fmt.Errorf("%w: reading %s: %v", ErrStore, s.path, err)
	}
	return nil
}

// write implements txnLog: it queues run for the group committer and blocks
// until the batch holding it is durable. The first transaction to find no
// leader becomes one: it drains the queue in batches — each batch one
// exclusive lock, one WriteAt, one fsync — until the queue is empty,
// committing transactions that arrived while it worked along the way. run
// sees the tables current (through the batch's view) under the exclusive
// file lock, so read-modify-write sequences (conditional create, lease
// acquire) are atomic across processes.
func (s *SQLiteStore) write(run func(v *txnView) error) error {
	t := &storeTxn{run: run, done: make(chan struct{})}
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return fmt.Errorf("%w: %s is closed", ErrStore, s.path)
	}
	s.queue = append(s.queue, t)
	if s.leading {
		s.qmu.Unlock()
		<-t.done
		return t.err
	}
	s.leading = true
	for {
		batch := s.queue
		s.queue = nil
		s.qmu.Unlock()
		s.commitBatch(batch)
		s.qmu.Lock()
		if len(s.queue) == 0 {
			s.leading = false
			break
		}
	}
	s.qmu.Unlock()
	<-t.done
	return t.err
}

// commitBatch runs one batch of queued transactions under a single
// exclusive-lock window and makes their staged records durable with a
// single fsync (none for a batch of lease records alone). Per-transaction
// failures (a lost CAS, a held lease) stage nothing and fail only their own
// caller; a batch write or sync failure fails every caller and discards the
// whole view — the tables keep the last durable state, so no caller is ever
// acknowledged before its bytes are synced. (Bytes a failed batch left
// behind may still be folded in by a later scan — error-then-visible is
// allowed, ack-before-durable is not.)
func (s *SQLiteStore) commitBatch(batch []*storeTxn) {
	s.mu.Lock()
	defer s.mu.Unlock()

	err := func() error {
		if err := flockExclusive(s.f); err != nil {
			return fmt.Errorf("%w: locking %s: %v", ErrStore, s.path, err)
		}
		defer funlock(s.f)
		tornAt, torn, err := s.catchUp()
		if err != nil {
			return fmt.Errorf("%w: reading %s: %v", ErrStore, s.path, err)
		}
		if torn {
			s.logf("engine: %s: truncating torn record tail at offset %d", s.path, tornAt)
			if err := s.f.Truncate(tornAt); err != nil {
				return fmt.Errorf("%w: truncating torn tail of %s: %v", ErrStore, s.path, err)
			}
		}
		v := s.view()
		for _, t := range batch {
			t.err = t.run(v)
		}
		// A batch of lease records alone skips the fsync. Leases are
		// coordination state, visible to sibling processes through the page
		// cache the instant WriteAt returns, and a machine crash that loses
		// them merely triggers the TTL-steal path the protocol already
		// defines — durability buys nothing there but an fsync per acquire,
		// renew, and release. The next data batch's fsync makes them durable
		// incidentally.
		var buf []byte
		durable := false
		for _, rec := range v.staged {
			buf = appendRecord(buf, rec.kind, rec.key, rec.val)
			durable = durable || rec.kind != recLease
		}
		if len(buf) == 0 {
			return nil
		}
		if _, err := s.f.WriteAt(buf, s.scanned); err != nil {
			return fmt.Errorf("%w: appending to %s: %v", ErrStore, s.path, err)
		}
		if durable {
			if err := s.sync(); err != nil {
				return fmt.Errorf("%w: syncing %s: %v", ErrStore, s.path, err)
			}
		}
		// Durable: fold the view into the tables. Only now — acks follow
		// durability, never precede it.
		s.fold(v)
		s.scanned += int64(len(buf))
		s.batchSize.Observe(float64(len(batch)))
		return nil
	}()

	for _, t := range batch {
		if err != nil && t.err == nil {
			t.err = err
		}
		close(t.done)
	}
}
