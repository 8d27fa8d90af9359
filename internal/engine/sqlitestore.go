package engine

import (
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
// file unmoved since the last scan). Mutations are group-committed:
// concurrent transactions queue, and a leader drains the queue under one
// exclusive lock, appends every staged record with one WriteAt, and fsyncs
// once for the whole batch — callers are acknowledged only after that
// fsync, so an acknowledged write is durable and a torn one is rolled back
// (truncated by the next writer), never served. The single exception is a
// batch of nothing but lease records, which commits without the fsync:
// lease durability is worthless (a crash losing a lease is the TTL-steal
// path working as designed) and sibling processes read the page cache, not
// the platter. The log is append-only and is not compacted; for the record
// volumes the engine writes (one campaign record per state transition, one
// result, one record per job) growth is modest, and a fresh file starts a
// new log.
type SQLiteStore struct {
	records // the tables, and mu, which also guards the log state below

	f *os.File

	// ownerLock is the state directory's exclusive advisory lock when the
	// store was opened as its single owner (OpenStateDir); Close drops it.
	ownerLock *os.File

	// scanned is the log offset up to which the tables reflect the file.
	scanned int64
	// statSize is the file size at which the last scan ended on a record
	// boundary, the torn record's start when it stopped at a torn tail. A
	// read whose stat matches it skips the flock/scan round-trip entirely
	// (the log below statSize is immutable).
	statSize int64

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

// OpenSQLiteStore opens (creating if needed) the shared single-file store
// at path. logf receives corruption warnings; nil means the standard
// logger.
func OpenSQLiteStore(path string, logf func(format string, args ...any)) (*SQLiteStore, error) {
	if logf == nil {
		logf = log.Printf
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: opening store file: %w", err)
	}
	s := &SQLiteStore{f: f}
	s.init(s, path, logf)
	if err := s.initHeader(); err != nil {
		f.Close()
		return nil, err
	}
	s.statSize = s.scanned
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

// Close implements Store: it releases the store's file handle and, for a
// state directory's owner, the directory lock. Operations after Close fail.
func (s *SQLiteStore) Close() error {
	s.qmu.Lock()
	s.closed = true
	s.qmu.Unlock()
	// Taking mu waits out a batch commit in flight; a leader that grabs a
	// later batch fails cleanly on the closed descriptor.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ownerLock != nil {
		s.ownerLock.Close() // closing the descriptor drops its flock
		s.ownerLock = nil
	}
	return s.f.Close()
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

// appendRecord encodes one record into buf-appendable form.
func appendRecord(dst []byte, kind byte, key string, val []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, val...)
	sum := crc32.Checksum(dst[start:], crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// catchUp scans the log from s.scanned to EOF, folding every complete,
// checksum-valid record into the tables. A torn or corrupt tail stops the
// scan: s.scanned and s.statSize are left at the last good boundary, and
// tornAt reports that offset so a writer (holding the exclusive lock) can
// truncate the tail away — the crash-recovery "WAL replay". Callers must
// hold at least a shared flock on s.f.
func (s *SQLiteStore) catchUp() (tornAt int64, torn bool, err error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("engine: store file: %w", err)
	}
	size := st.Size()
	s.statSize = size
	if size <= s.scanned {
		return 0, false, nil
	}
	base := s.scanned
	r := io.NewSectionReader(s.f, base, size-base)
	br := &countingByteReader{r: r, size: size - base}
	for {
		recStart := base + br.n
		kind, key, val, ok, err := readOneRecord(br)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			if recStart < size {
				s.statSize = recStart
				return recStart, true, nil
			}
			return 0, false, nil
		}
		s.apply(kind, key, val)
		s.scanned = base + br.n
	}
}

// countingByteReader adapts an io.Reader into the ByteReader binary.Uvarint
// needs while tracking how many bytes were consumed.
type countingByteReader struct {
	r    io.Reader
	n    int64
	size int64 // bytes r holds: a longer length prefix is a torn tail
	buf  [1]byte
}

// ReadByte implements io.ByteReader.
func (c *countingByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(c.r, c.buf[:]); err != nil {
		return 0, err
	}
	c.n++
	return c.buf[0], nil
}

// Read implements io.Reader.
func (c *countingByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readOneRecord decodes one record from br. ok is false — with a nil
// error — when the remaining bytes do not form a complete valid record:
// a torn tail, not a failure.
func readOneRecord(br *countingByteReader) (kind byte, key string, val []byte, ok bool, err error) {
	kind, rerr := br.ReadByte()
	if rerr != nil {
		return 0, "", nil, false, nil
	}
	sum := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	sum.Write([]byte{kind})
	keyLen, rerr := readUvarint(br, sum)
	if rerr != nil || keyLen > sqliteMaxRecord || keyLen > uint64(br.size-br.n) {
		return 0, "", nil, false, nil
	}
	keyBuf := make([]byte, keyLen)
	if _, rerr := io.ReadFull(br, keyBuf); rerr != nil {
		return 0, "", nil, false, nil
	}
	sum.Write(keyBuf)
	valLen, rerr := readUvarint(br, sum)
	if rerr != nil || valLen > sqliteMaxRecord || valLen > uint64(br.size-br.n) {
		return 0, "", nil, false, nil
	}
	val = make([]byte, valLen)
	if _, rerr := io.ReadFull(br, val); rerr != nil {
		return 0, "", nil, false, nil
	}
	sum.Write(val)
	var crcBuf [4]byte
	if _, rerr := io.ReadFull(br, crcBuf[:]); rerr != nil {
		return 0, "", nil, false, nil
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != sum.Sum32() {
		return 0, "", nil, false, nil
	}
	return kind, string(keyBuf), val, true, nil
}

// readUvarint reads a uvarint from br, feeding the consumed bytes into sum.
func readUvarint(br *countingByteReader, sum io.Writer) (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		sum.Write([]byte{b})
		if b < 0x80 {
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("engine: uvarint overflow")
}

// refresh implements txnLog, catching the tables up with the log. The clean
// fast path is one fstat: when the file size matches the last scan's,
// nothing was appended — the log below that offset is immutable (appends
// only grow the file; truncation only removes torn bytes past every
// validated record boundary), so the tables are current and the flock/scan
// round-trip is skipped. A torn tail observed under the shared lock is not
// folded in; reads rescan it until a writer truncates it.
func (s *SQLiteStore) refresh() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrStore, s.path, err)
	}
	if st.Size() == s.statSize {
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
			s.statSize = tornAt
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
		s.statSize = s.scanned
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
