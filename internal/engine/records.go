package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// storeOpBuckets bound the store-latency histograms: local-disk and
// in-memory operations, 100µs up to ~1.6s.
var storeOpBuckets = obs.ExpBuckets(0.0001, 2, 14)

// records is the Store contract written once: every method but Close, over
// one set of tables holding the latest campaign, result and job JSON and
// the live job leases. Records are kept as their JSON encodings, so a cache
// hit takes the same serialisation round-trip on every backend. A backend
// embeds records and supplies the two things it adds (txnLog). Once
// instrumented, records times every operation it serves.
type records struct {
	// mu guards the tables, and the backend's own state alongside them.
	mu        sync.Mutex
	campaigns map[string][]byte
	results   map[string][]byte
	jobs      map[string][]byte
	leases    map[string]lease

	// signal wakes in-process lease waiters when a write changed a lease
	// or published a job record.
	signal leaseSignal

	log  txnLog
	path string // names the store in log lines
	logf func(format string, args ...any)

	// ops and errs time and count every operation; nil until instrument.
	ops  *obs.HistogramVec
	errs *obs.CounterVec
}

// txnLog is what a backend adds to the tables.
type txnLog interface {
	// write runs one transaction against a view of the tables and, when it
	// succeeds, makes what it staged durable and folds it in (fold), as
	// one step with respect to every other writer of the store. A
	// transaction checks before it stages, so a failed one stages nothing;
	// its error is write's.
	write(run func(v *txnView) error) error
	// refresh brings the tables up to date with what other handles wrote.
	// Every read calls it under mu.
	refresh() error
}

// init gives r empty tables and its backend.
func (r *records) init(log txnLog, path string, logf func(format string, args ...any)) {
	r.campaigns = map[string][]byte{}
	r.results = map[string][]byte{}
	r.jobs = map[string][]byte{}
	r.leases = map[string]lease{}
	r.log, r.path, r.logf = log, path, logf
}

// instrument registers the per-operation latency histogram and error
// counter on reg; engine.New calls it before the store's first use. A nil
// registry leaves the store untimed.
func (r *records) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.ops = reg.HistogramVec("cherivoke_engine_store_seconds",
		"Latency of job/result/campaign store operations.", storeOpBuckets, "op")
	r.errs = reg.CounterVec("cherivoke_engine_store_errors_total",
		"Store operations that returned an error (ErrNotFound excluded for lookups).", "op")
}

// observe records one finished store operation. A missed lookup, a lost
// CreateCampaign race and a held lease are the protocols working, not the
// store failing, so they count no error.
func (r *records) observe(op string, start time.Time, err *error) {
	if r.ops == nil {
		return
	}
	r.ops.With(op).Observe(time.Since(start).Seconds())
	if e := *err; e != nil && !errors.Is(e, ErrNotFound) && !errors.Is(e, ErrConflict) && !errors.Is(e, ErrLeaseHeld) {
		r.errs.With(op).Inc()
	}
}

// apply folds one record into the tables; a lease record with an empty
// owner is a release. Callers hold mu. Table values are replaced, never
// written in place, so a value read under mu may be decoded after it.
func (r *records) apply(kind byte, key string, val []byte) {
	switch kind {
	case recCampaign:
		r.campaigns[key] = val
	case recResult:
		r.results[key] = val
	case recJob:
		r.jobs[key] = val
	case recLease:
		var l lease
		if err := json.Unmarshal(val, &l); err != nil {
			r.logf("engine: skipping corrupted lease record for %q: %v", key, err)
			return
		}
		if l.Owner == "" {
			delete(r.leases, key)
		} else {
			r.leases[key] = l
		}
	default:
		r.logf("engine: skipping record of unknown kind %d", kind)
	}
}

// view returns an empty view over the tables for one write.
func (r *records) view() *txnView {
	return &txnView{r: r, campaigns: map[string][]byte{}, jobs: map[string][]byte{}, leases: map[string]lease{}}
}

// fold applies every record v staged, in staging order — the order a later
// reader of a log applies them — and wakes lease waiters when a lease or a
// job changed. Callers hold mu.
func (r *records) fold(v *txnView) {
	for _, rec := range v.staged {
		r.apply(rec.kind, rec.key, rec.val)
	}
	if v.touched {
		r.signal.broadcast()
	}
}

// read runs fn over the tables once the backend has brought them up to
// date.
func (r *records) read(fn func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.log.refresh(); err != nil {
		return err
	}
	return fn()
}

// record is one staged write: its kind, key and JSON value.
type record struct {
	kind byte
	key  string
	val  []byte
}

// txnView is the state one transaction reads and stages against: the
// tables plus every record staged earlier in the same write (a SQLiteStore
// batch holds many transactions). Staging keeps the record in order and in
// the overlay, so later transactions observe earlier ones exactly as the
// tables will once the write folds them in.
type txnView struct {
	r      *records
	staged []record

	campaigns map[string][]byte
	jobs      map[string][]byte
	leases    map[string]lease // zero Owner = staged release tombstone
	touched   bool             // a lease or job record was staged; waiters care
}

// campaign reads id through the overlay.
func (v *txnView) campaign(id string) ([]byte, bool) {
	if b, ok := v.campaigns[id]; ok {
		return b, true
	}
	b, ok := v.r.campaigns[id]
	return b, ok
}

// job reads key through the overlay.
func (v *txnView) job(key string) ([]byte, bool) {
	if b, ok := v.jobs[key]; ok {
		return b, true
	}
	b, ok := v.r.jobs[key]
	return b, ok
}

// lease reads key's lease through the overlay; a staged tombstone reads as
// absent.
func (v *txnView) lease(key string) (lease, bool) {
	if l, ok := v.leases[key]; ok {
		return l, l.Owner != ""
	}
	l, ok := v.r.leases[key]
	return l, ok
}

// stage appends one record to the write and, for campaigns and jobs, the
// overlay. It refuses a key or value longer than sqliteMaxRecord, the log
// reader's bound, on either backend: a SQLiteStore reader would take it for
// a torn tail, and a record one backend holds the other can too.
func (v *txnView) stage(kind byte, key string, val []byte) error {
	if uint64(len(key)) > sqliteMaxRecord || uint64(len(val)) > sqliteMaxRecord {
		return fmt.Errorf("engine: %d-byte record %q exceeds the store's %d-byte record bound", len(val), key, sqliteMaxRecord)
	}
	v.staged = append(v.staged, record{kind, key, val})
	switch kind {
	case recCampaign:
		v.campaigns[key] = val
	case recJob:
		v.jobs[key] = val
		v.touched = true
	}
	return nil
}

// stageLease stages one lease record; a zero-Owner lease is the release
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

// putRecord validates, marshals, and writes one record.
func (r *records) putRecord(kind byte, key string, val any) error {
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid record name %q", key)
	}
	b, err := json.Marshal(val)
	if err != nil {
		return err
	}
	return r.log.write(func(v *txnView) error { return v.stage(kind, key, b) })
}

// getRecord reads the latest value under key in table into val. A value
// that does not decode is logged and reads as absent.
func (r *records) getRecord(table map[string][]byte, key string, val any) error {
	var raw []byte
	err := r.read(func() error {
		b, ok := table[key]
		if !ok {
			return ErrNotFound
		}
		raw = b
		return nil
	})
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, val); err != nil {
		r.logf("engine: skipping corrupted record %q in %s: %v", key, r.path, err)
		return ErrNotFound
	}
	return nil
}

// PutCampaign implements Store.
func (r *records) PutCampaign(c Campaign) (err error) {
	defer r.observe("put_campaign", time.Now(), &err)
	return r.putRecord(recCampaign, c.ID, c)
}

// CreateCampaign implements Store: the existence check and the write are
// one transaction, reading through the view (so a creation earlier in the
// same batch is visible), and creators racing from different processes
// serialise on the backend's write — exactly one wins.
func (r *records) CreateCampaign(c Campaign) (err error) {
	defer r.observe("create_campaign", time.Now(), &err)
	if !validRecordName(c.ID) {
		return fmt.Errorf("engine: invalid record name %q", c.ID)
	}
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return r.log.write(func(v *txnView) error {
		if _, ok := v.campaign(c.ID); ok {
			return fmt.Errorf("%w: campaign %s already exists", ErrConflict, c.ID)
		}
		return v.stage(recCampaign, c.ID, b)
	})
}

// Campaign implements Store.
func (r *records) Campaign(id string) (c Campaign, err error) {
	defer r.observe("get_campaign", time.Now(), &err)
	if err := r.getRecord(r.campaigns, id, &c); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// Campaigns implements Store; a record that does not decode is logged and
// left out.
func (r *records) Campaigns() (out []Campaign, err error) {
	defer r.observe("list_campaigns", time.Now(), &err)
	var encoded [][]byte
	err = r.read(func() error {
		for _, b := range r.campaigns {
			encoded = append(encoded, b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = make([]Campaign, 0, len(encoded))
	for _, b := range encoded {
		var c Campaign
		if err := json.Unmarshal(b, &c); err != nil {
			r.logf("engine: skipping corrupted campaign record in %s: %v", r.path, err)
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// PutResult implements Store.
func (r *records) PutResult(id string, res *campaign.Result) (err error) {
	defer r.observe("put_result", time.Now(), &err)
	return r.putRecord(recResult, id, res)
}

// Result implements Store.
func (r *records) Result(id string) (res *campaign.Result, err error) {
	defer r.observe("get_result", time.Now(), &err)
	res = new(campaign.Result)
	if err := r.getRecord(r.results, id, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Job implements Store.
func (r *records) Job(key string) (jr campaign.JobResult, err error) {
	defer r.observe("get_job", time.Now(), &err)
	if err := r.getRecord(r.jobs, key, &jr); err != nil {
		return campaign.JobResult{}, err
	}
	return jr, nil
}

// AcquireJobLease implements Store: the liveness check and the grant are
// one transaction (through the view, so an acquire earlier in the same
// batch blocks a later one), and stealers racing from different processes
// serialise — exactly one wins. A refused acquire stages nothing: on a
// SQLiteStore it costs no append and no fsync.
func (r *records) AcquireJobLease(key, owner string, ttl time.Duration) (err error) {
	defer r.observe("acquire_lease", time.Now(), &err)
	if err := checkLeaseArgs(key, owner, ttl); err != nil {
		return err
	}
	return r.log.write(func(v *txnView) error {
		now := time.Now()
		if cur, ok := v.lease(key); ok && cur.live(now) && cur.Owner != owner {
			return fmt.Errorf("%w: job %.12s leased by %s", ErrLeaseHeld, key, cur.Owner)
		}
		return v.stageLease(key, lease{Owner: owner, Expires: now.Add(ttl).UnixNano()})
	})
}

// ReleaseJobLease implements Store: it stages the release tombstone only
// while owner holds the lease.
func (r *records) ReleaseJobLease(key, owner string) (err error) {
	defer r.observe("release_lease", time.Now(), &err)
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid lease key %q", key)
	}
	return r.log.write(func(v *txnView) error {
		if cur, ok := v.lease(key); !ok || cur.Owner != owner {
			return nil
		}
		return v.stageLease(key, lease{})
	})
}

// PeekJobLease implements Store: a read-only view of key's lease. A blocked
// waiter polls this instead of AcquireJobLease, so waiting costs a table
// read (on a SQLiteStore usually one fstat) rather than a write per poll.
func (r *records) PeekJobLease(key string) (owner string, held bool, err error) {
	defer r.observe("peek_lease", time.Now(), &err)
	if !validRecordName(key) {
		return "", false, fmt.Errorf("engine: invalid lease key %q", key)
	}
	err = r.read(func() error {
		if l, ok := r.leases[key]; ok && l.live(time.Now()) {
			owner, held = l.Owner, true
		}
		return nil
	})
	return owner, held, err
}

// LeaseChanged implements Store. Arming a channel is not a store operation
// worth timing.
func (r *records) LeaseChanged() <-chan struct{} { return r.signal.wait() }

// PublishJob implements Store: the job record and the lease release are one
// transaction, so no observable state has the lease released but the
// result unpublished. Job records are content-addressed, so republishing
// the bytes the store already holds stages no job record.
func (r *records) PublishJob(key, owner string, jr campaign.JobResult) (err error) {
	defer r.observe("publish_job", time.Now(), &err)
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid record name %q", key)
	}
	if owner == "" {
		return errors.New("engine: lease owner must be non-empty")
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	return r.log.write(func(v *txnView) error {
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

// MaxSeq implements Store. Unreadable record content cannot hide a
// sequence — the key survives even when the value does not decode — so the
// keys of campaigns and results are the whole evidence.
func (r *records) MaxSeq() (max int, err error) {
	defer r.observe("max_seq", time.Now(), &err)
	err = r.read(func() error {
		for _, table := range []map[string][]byte{r.campaigns, r.results} {
			for id := range table {
				if seq, ok := seqFromID(id); ok && seq > max {
					max = seq
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return max, nil
}
