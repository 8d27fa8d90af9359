package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
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

// SQLiteStore is the shared single-file Store. Every handle — in this
// process or another — keeps an in-memory table of the log's latest state
// and catches up by scanning the log's unread tail before each operation,
// under a shared or exclusive advisory lock on the file (reads skip even
// that when a stat shows the file unmoved since the last scan). Mutations
// are group-committed: concurrent transactions queue, and a leader drains
// the queue under one exclusive lock, appends every staged record with one
// WriteAt, and fsyncs once for the whole batch — callers are acknowledged
// only after that fsync, so an acknowledged write is durable and a torn one
// is rolled back (truncated by the next writer), never served. The single
// exception is a batch of nothing but lease records, which commits without
// the fsync: lease durability is worthless (a crash losing a lease is the
// TTL-steal path working as designed) and sibling processes read the page
// cache, not the platter. The log is
// append-only and is not compacted; for the record volumes the engine
// writes (one campaign record per state transition, one result, one record
// per job) growth is modest, and a fresh file starts a new log.
type SQLiteStore struct {
	mu   sync.Mutex
	f    *os.File
	path string
	logf func(format string, args ...any)

	// ownerLock is the state directory's exclusive advisory lock when the
	// store was opened as its single owner (OpenStateDir); Close drops it.
	ownerLock *os.File

	// scanned is the log offset up to which tables below reflect the file.
	scanned int64
	// statSize is the file size at which the last scan ended on a record
	// boundary, the torn record's start when it stopped at a torn tail. A
	// read whose stat matches it skips the flock/scan round-trip entirely
	// (the log below statSize is immutable).
	statSize  int64
	campaigns map[string][]byte
	results   map[string][]byte
	jobs      map[string][]byte
	leases    map[string]lease

	// qmu guards the group-commit queue. Transactions enqueue here; the
	// first enqueuer becomes the leader and commits batches until the
	// queue drains.
	qmu     sync.Mutex
	queue   []*storeTxn
	leading bool
	closed  bool

	// signal wakes in-process lease waiters when a batch changed a lease
	// or published a job record.
	signal leaseSignal

	// fsyncs counts fsync(2) calls over the store's lifetime — the cost
	// the group committer exists to collapse. Always maintained;
	// fsyncCtr/batchSize mirror it into a registry once instrumented.
	fsyncs     atomic.Uint64
	rescans    atomic.Uint64 // reads that had to take the flock and re-scan
	fsyncCtr   *obs.Counter
	batchSize  *obs.Histogram
	cleanReads *obs.Counter // reads served on readView's one-fstat path

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

// txnView is the state one batched transaction reads and stages against:
// the durable tables plus every record staged by earlier transactions in
// the same batch. Staging appends the encoded record to the batch buffer
// and records it in the overlay, so later transactions in a batch observe
// earlier ones exactly as a later reader of the log will — fold order is
// append order.
type txnView struct {
	s   *SQLiteStore
	buf []byte

	campaigns map[string][]byte
	results   map[string][]byte
	jobs      map[string][]byte
	leases    map[string]lease // zero Owner = staged release tombstone
	touched   bool             // a lease or job record was staged; waiters care
	// needSync marks a batch holding data records (campaigns, results,
	// jobs), whose acknowledgement promises durability. A lease-only batch
	// skips the fsync: leases are coordination state, visible to sibling
	// processes through the page cache the instant WriteAt returns, and a
	// machine crash that loses them merely triggers the TTL-steal path the
	// protocol already defines — durability buys nothing there but an
	// fsync per acquire, renew, and release.
	needSync bool
}

// campaign reads id through the overlay.
func (v *txnView) campaign(id string) ([]byte, bool) {
	if b, ok := v.campaigns[id]; ok {
		return b, true
	}
	b, ok := v.s.campaigns[id]
	return b, ok
}

// job reads key through the overlay.
func (v *txnView) job(key string) ([]byte, bool) {
	if b, ok := v.jobs[key]; ok {
		return b, true
	}
	b, ok := v.s.jobs[key]
	return b, ok
}

// lease reads key's lease through the overlay; a staged tombstone reads as
// absent.
func (v *txnView) lease(key string) (lease, bool) {
	if l, ok := v.leases[key]; ok {
		if l.Owner == "" {
			return lease{}, false
		}
		return l, true
	}
	l, ok := v.s.leases[key]
	return l, ok
}

// stage appends one record to the batch and, for data records, the
// overlay. It refuses a key or value longer than sqliteMaxRecord before
// appending anything: every reader would take it for a torn tail.
func (v *txnView) stage(kind byte, key string, val []byte) error {
	if uint64(len(key)) > sqliteMaxRecord || uint64(len(val)) > sqliteMaxRecord {
		return fmt.Errorf("engine: %d-byte record %q exceeds the store's %d-byte record bound", len(val), key, sqliteMaxRecord)
	}
	v.buf = appendRecord(v.buf, kind, key, val)
	switch kind {
	case recCampaign:
		v.campaigns[key] = val
	case recResult:
		v.results[key] = val
	case recJob:
		v.jobs[key] = val
		v.touched = true
	}
	v.needSync = v.needSync || kind != recLease
	return nil
}

// stageLease appends one lease record; a zero-Owner lease is the release
// tombstone.
func (v *txnView) stageLease(key string, l lease) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	if err := v.stage(recLease, key, b); err != nil {
		return err
	}
	v.leases[key] = l
	v.touched = true
	return nil
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
	s := &SQLiteStore{
		f:         f,
		path:      path,
		logf:      logf,
		campaigns: map[string][]byte{},
		results:   map[string][]byte{},
		jobs:      map[string][]byte{},
		leases:    map[string]lease{},
	}
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

// instrument registers the group committer's fsync and batch-size meters
// and the clean-read counter on r; engine.New calls it before first use. A
// nil registry leaves them disabled.
func (s *SQLiteStore) instrument(r *obs.Registry) {
	if r == nil {
		return
	}
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

// apply folds one decoded record into the in-memory tables.
func (s *SQLiteStore) apply(kind byte, key string, val []byte) {
	switch kind {
	case recCampaign:
		s.campaigns[key] = append([]byte(nil), val...)
	case recResult:
		s.results[key] = append([]byte(nil), val...)
	case recJob:
		s.jobs[key] = append([]byte(nil), val...)
	case recLease:
		var l lease
		if err := json.Unmarshal(val, &l); err != nil {
			s.logf("engine: skipping corrupted lease record for %q: %v", key, err)
			return
		}
		if l.Owner == "" {
			delete(s.leases, key)
		} else {
			s.leases[key] = l
		}
	default:
		s.logf("engine: skipping record of unknown kind %d", kind)
	}
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

// readView runs fn over the in-memory tables, first catching them up with
// the log. The clean fast path is one fstat: when the file size matches the
// last scan's, nothing was appended — the log below that offset is
// immutable (appends only grow the file; truncation only removes torn
// bytes past every validated record boundary), so the tables are current
// and the flock/scan round-trip is skipped. A torn tail observed under the
// shared lock is not folded in; reads rescan it until a writer truncates it.
func (s *SQLiteStore) readView(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrStore, s.path, err)
	}
	if st.Size() == s.statSize {
		s.cleanReads.Inc()
		return fn()
	}
	s.rescans.Add(1)
	if err := flockShared(s.f); err != nil {
		return fmt.Errorf("%w: locking %s: %v", ErrStore, s.path, err)
	}
	defer funlock(s.f)
	if _, _, err := s.catchUp(); err != nil {
		return fmt.Errorf("%w: reading %s: %v", ErrStore, s.path, err)
	}
	return fn()
}

// writeTxn queues run for the group committer and blocks until the batch
// holding it is durable. The first transaction to find no leader becomes
// one: it drains the queue in batches — each batch one exclusive lock, one
// WriteAt, one fsync — until the queue is empty, committing transactions
// that arrived while it worked along the way. run sees the tables current
// (plus the batch overlay) under the exclusive file lock, so
// read-modify-write sequences (conditional create, lease acquire) are
// atomic across processes.
func (s *SQLiteStore) writeTxn(run func(v *txnView) error) error {
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
// single fsync (elided entirely for lease-only batches, whose records
// need visibility, not durability — see txnView.needSync). Per-transaction failures (a lost CAS, a held lease) stage
// nothing and fail only their own caller; a batch write or sync failure
// fails every caller and discards the whole overlay — the tables keep the
// last durable state, so no caller is ever acknowledged before its bytes
// are synced. (Bytes a failed batch left behind may still be folded in by
// a later scan — error-then-visible is allowed, ack-before-durable is
// not.)
func (s *SQLiteStore) commitBatch(batch []*storeTxn) {
	s.mu.Lock()
	defer s.mu.Unlock()

	v := &txnView{
		s:         s,
		campaigns: map[string][]byte{},
		results:   map[string][]byte{},
		jobs:      map[string][]byte{},
		leases:    map[string]lease{},
	}
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
		for _, t := range batch {
			t.err = t.run(v)
		}
		if len(v.buf) == 0 {
			return nil
		}
		if _, err := s.f.WriteAt(v.buf, s.scanned); err != nil {
			return fmt.Errorf("%w: appending to %s: %v", ErrStore, s.path, err)
		}
		// Lease-only batches skip the fsync — see txnView.needSync. Their
		// records are already visible to every sibling process (page
		// cache), and the next data batch's fsync makes them durable
		// incidentally.
		if v.needSync {
			if err := s.sync(); err != nil {
				return fmt.Errorf("%w: syncing %s: %v", ErrStore, s.path, err)
			}
		}
		// Durable: fold the overlay into the tables. Only now — acks
		// follow durability, never precede it.
		for id, b := range v.campaigns {
			s.campaigns[id] = b
		}
		for id, b := range v.results {
			s.results[id] = b
		}
		for key, b := range v.jobs {
			s.jobs[key] = b
		}
		for key, l := range v.leases {
			if l.Owner == "" {
				delete(s.leases, key)
			} else {
				s.leases[key] = l
			}
		}
		s.scanned += int64(len(v.buf))
		s.statSize = s.scanned
		s.batchSize.Observe(float64(len(batch)))
		return nil
	}()

	if err != nil {
		for _, t := range batch {
			if t.err == nil {
				t.err = err
			}
		}
	} else if v.touched {
		s.signal.broadcast()
	}
	for _, t := range batch {
		close(t.done)
	}
}

// putRecord validates, marshals, and appends one record.
func (s *SQLiteStore) putRecord(kind byte, key string, v any) error {
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid record name %q", key)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.writeTxn(func(view *txnView) error { return view.stage(kind, key, b) })
}

// getRecord reads the latest value for (table, key) into v.
func (s *SQLiteStore) getRecord(table func() map[string][]byte, key string, v any) error {
	var raw []byte
	err := s.readView(func() error {
		b, ok := table()[key]
		if !ok {
			return ErrNotFound
		}
		raw = append([]byte(nil), b...)
		return nil
	})
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		s.logf("engine: skipping corrupted record %q in %s: %v", key, s.path, err)
		return ErrNotFound
	}
	return nil
}

// PutCampaign implements Store.
func (s *SQLiteStore) PutCampaign(c Campaign) error {
	return s.putRecord(recCampaign, c.ID, c)
}

// CreateCampaign implements Store: the existence check and the append run
// under one exclusive file lock (reading through the batch overlay, so a
// creation earlier in the same batch is visible), and creators racing from
// different processes serialise on the file — exactly one wins.
func (s *SQLiteStore) CreateCampaign(c Campaign) error {
	if !validRecordName(c.ID) {
		return fmt.Errorf("engine: invalid record name %q", c.ID)
	}
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return s.writeTxn(func(v *txnView) error {
		if _, ok := v.campaign(c.ID); ok {
			return fmt.Errorf("%w: campaign %s already exists", ErrConflict, c.ID)
		}
		return v.stage(recCampaign, c.ID, b)
	})
}

// Campaign implements Store.
func (s *SQLiteStore) Campaign(id string) (Campaign, error) {
	var c Campaign
	if err := s.getRecord(func() map[string][]byte { return s.campaigns }, id, &c); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// Campaigns implements Store.
func (s *SQLiteStore) Campaigns() ([]Campaign, error) {
	var encoded [][]byte
	err := s.readView(func() error {
		for _, b := range s.campaigns {
			encoded = append(encoded, append([]byte(nil), b...))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Campaign, 0, len(encoded))
	for _, b := range encoded {
		var c Campaign
		if err := json.Unmarshal(b, &c); err != nil {
			s.logf("engine: skipping corrupted campaign record in %s: %v", s.path, err)
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// PutResult implements Store.
func (s *SQLiteStore) PutResult(id string, res *campaign.Result) error {
	return s.putRecord(recResult, id, res)
}

// Result implements Store.
func (s *SQLiteStore) Result(id string) (*campaign.Result, error) {
	var res campaign.Result
	if err := s.getRecord(func() map[string][]byte { return s.results }, id, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Job implements Store.
func (s *SQLiteStore) Job(key string) (campaign.JobResult, error) {
	var jr campaign.JobResult
	if err := s.getRecord(func() map[string][]byte { return s.jobs }, key, &jr); err != nil {
		return campaign.JobResult{}, err
	}
	return jr, nil
}

// AcquireJobLease implements Store: the liveness check and the lease append
// run under one exclusive file lock (through the batch overlay, so an
// acquire earlier in the same batch blocks a later one), and stealers
// racing from different processes serialise — exactly one wins. A refused
// acquire stages nothing: it costs no append and no fsync.
func (s *SQLiteStore) AcquireJobLease(key, owner string, ttl time.Duration) error {
	if err := checkLeaseArgs(key, owner, ttl); err != nil {
		return err
	}
	return s.writeTxn(func(v *txnView) error {
		now := time.Now()
		if cur, ok := v.lease(key); ok && cur.live(now) && cur.Owner != owner {
			return fmt.Errorf("%w: job %.12s leased by %s", ErrLeaseHeld, key, cur.Owner)
		}
		return v.stageLease(key, lease{Owner: owner, Expires: now.Add(ttl).UnixNano()})
	})
}

// ReleaseJobLease implements Store: a lease record with an empty owner is
// the release tombstone.
func (s *SQLiteStore) ReleaseJobLease(key, owner string) error {
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid lease key %q", key)
	}
	return s.writeTxn(func(v *txnView) error {
		cur, ok := v.lease(key)
		if !ok || cur.Owner != owner {
			return nil
		}
		return v.stageLease(key, lease{})
	})
}

// PeekJobLease implements Store: a read-only view of key's lease. A
// blocked waiter polls this instead of AcquireJobLease, so waiting costs a
// table read (usually one fstat — see readView) rather than an exclusive
// lock per poll.
func (s *SQLiteStore) PeekJobLease(key string) (string, bool, error) {
	if !validRecordName(key) {
		return "", false, fmt.Errorf("engine: invalid lease key %q", key)
	}
	var owner string
	var held bool
	err := s.readView(func() error {
		if l, ok := s.leases[key]; ok && l.live(time.Now()) {
			owner, held = l.Owner, true
		}
		return nil
	})
	return owner, held, err
}

// LeaseChanged implements Store.
func (s *SQLiteStore) LeaseChanged() <-chan struct{} { return s.signal.wait() }

// PublishJob implements Store: the job record and the lease release
// fold into one transaction — one append, one fsync (shared with the rest
// of the batch), and no observable state in which the lease is released
// but the result unpublished. Job records are content-addressed, so
// republishing bytes the log already holds appends no job record.
func (s *SQLiteStore) PublishJob(key, owner string, jr campaign.JobResult) error {
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid record name %q", key)
	}
	if owner == "" {
		return fmt.Errorf("engine: lease owner must be non-empty")
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	return s.writeTxn(func(v *txnView) error {
		if cur, ok := v.job(key); !ok || !bytes.Equal(cur, b) {
			if err := v.stage(recJob, key, b); err != nil {
				return err
			}
		}
		if cur, ok := v.lease(key); ok && cur.Owner == owner {
			return v.stageLease(key, lease{})
		}
		return nil
	})
}

// MaxSeq implements Store. Unreadable record *content* cannot hide a
// sequence here — the key survives even when the value doesn't parse — so
// keys of campaigns and results are the whole evidence.
func (s *SQLiteStore) MaxSeq() (int, error) {
	max := 0
	err := s.readView(func() error {
		for id := range s.campaigns {
			if seq, ok := seqFromID(id); ok && seq > max {
				max = seq
			}
		}
		for id := range s.results {
			if seq, ok := seqFromID(id); ok && seq > max {
				max = seq
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return max, nil
}
