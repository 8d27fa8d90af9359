package engine

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/campaign"
)

// ErrNotFound is returned by Store lookups that resolve to nothing.
var ErrNotFound = errors.New("engine: not found")

// ErrStore marks failures of the store itself (unwritable directory, full
// disk) as opposed to failures of the thing being stored — the distinction
// an HTTP adapter needs between 500 and 400.
var ErrStore = errors.New("engine: store failure")

// ErrConflict is returned by conditional writes (CreateCampaign) that lost
// a race: the record already exists, written by this process or by another
// writer sharing the store. The caller retries with fresh state; nothing
// was overwritten.
var ErrConflict = errors.New("engine: conflicting write")

// ErrLeaseHeld is returned by AcquireJobLease when another live owner holds
// the lease. The caller either waits for the holder to publish its result
// or retries after the lease's TTL, at which point the lease can be stolen.
var ErrLeaseHeld = errors.New("engine: lease held")

// Store persists the engine's three record kinds: campaign metadata,
// finished campaign Results, and individual JobResults under their JobKey.
// Implementations must be safe for concurrent use — the worker pool stores
// job results in parallel — and must return records that serialise to
// exactly the bytes the original would have (all built-in stores keep the
// canonical JSON encoding, so a served warm-cache artifact is byte-identical
// to the cold one).
//
// Stores also carry the two coordination primitives that make N concurrent
// writers safe: CreateCampaign (a conditional put keyed on the campaign ID,
// so two coordinators can never mint the same ID) and job leases (so two
// engines racing the same job key execute it at most once between them).
// Both built-in backends implement every method but Close through one
// record layer (records), which honours the contract within one process;
// SQLiteStore's log extends it across processes sharing one file. The
// conformance contract is executable: storetest.Run exercises every method
// against any backend, and every backend in the tree must pass it.
type Store interface {
	// PutCampaign writes (or overwrites) one campaign record.
	PutCampaign(c Campaign) error
	// CreateCampaign writes one campaign record only if no record with
	// the same ID exists yet, atomically with respect to every other
	// writer of the store. A lost race returns ErrConflict (possibly
	// wrapped) and leaves the existing record untouched.
	CreateCampaign(c Campaign) error
	// Campaign returns the record stored under id, or ErrNotFound.
	Campaign(id string) (Campaign, error)
	// Campaigns returns every stored record, sorted by submission
	// sequence.
	Campaigns() ([]Campaign, error)

	// PutResult writes a finished campaign's full Result artifact.
	PutResult(id string, res *campaign.Result) error
	// Result returns a stored Result, or ErrNotFound.
	Result(id string) (*campaign.Result, error)

	// Job returns the result stored under key, or ErrNotFound.
	Job(key string) (campaign.JobResult, error)

	// AcquireJobLease claims the exclusive right to execute the job
	// stored under key on behalf of owner, for ttl. It returns nil when
	// the lease is granted: no lease existed, the previous lease expired
	// (the grant steals it), or owner already holds it (the grant renews
	// it, extending the expiry). It returns ErrLeaseHeld (possibly
	// wrapped) while another owner's lease is live. owner must be
	// non-empty and ttl positive.
	AcquireJobLease(key, owner string, ttl time.Duration) error
	// ReleaseJobLease drops owner's lease on key. Releasing a lease that
	// is absent, expired, or held by another owner is a no-op, not an
	// error — the lease may have been stolen after expiry.
	ReleaseJobLease(key, owner string) error
	// PeekJobLease reports key's live lease, if any, without mutating it:
	// held reports whether a live lease exists, and owner identifies its
	// holder. Waiters blocked on a sibling's lease poll through it — a peek
	// never appends, never fsyncs, and on SQLiteStore usually costs one
	// fstat.
	PeekJobLease(key string) (owner string, held bool, err error)
	// LeaseChanged returns a channel closed on the next lease release or
	// job publication in this process, after which waiters must call again
	// for a fresh channel. Waiters arm it *before* re-checking state, so no
	// transition is missed; waiters in other processes hear nothing and
	// fall back to jittered backoff.
	LeaseChanged() <-chan struct{}
	// PublishJob, the only job-result write, stores jr under its content
	// key and releases owner's lease on it as one step: the lease
	// protocol's "publish before release" ordering holds trivially, since
	// no observable state lies between the two. Publishing without holding
	// the lease still stores the record and releases nothing; owner must
	// be non-empty.
	PublishJob(key, owner string, jr campaign.JobResult) error

	// MaxSeq returns the highest submission sequence the store has any
	// evidence of — counting records whose content is unreadable and
	// orphaned result artifacts — so a recovering engine never re-mints
	// a campaign ID that may still have data on disk.
	MaxSeq() (int, error)

	// Close releases the store's file handle and advisory locks, if it
	// holds any.
	Close() error
}

// leaseSignal is a close-broadcast notifier: wait hands out one shared
// channel, broadcast closes it and forgets it, waking every waiter at
// once. The next wait re-arms a fresh channel.
type leaseSignal struct {
	mu sync.Mutex
	ch chan struct{}
}

// wait returns the channel the next broadcast will close.
func (ls *leaseSignal) wait() <-chan struct{} {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.ch == nil {
		ls.ch = make(chan struct{})
	}
	return ls.ch
}

// broadcast wakes every waiter armed since the last broadcast.
func (ls *leaseSignal) broadcast() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.ch != nil {
		close(ls.ch)
		ls.ch = nil
	}
}

// lease is one job lease's state, shared by every backend: the holding
// owner and the wall-clock instant the grant lapses.
type lease struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires"` // UnixNano
}

// live reports whether the lease is held at instant now.
func (l lease) live(now time.Time) bool {
	return l.Owner != "" && now.UnixNano() < l.Expires
}

// validRecordName guards the record identifiers every backend accepts:
// engine-generated campaign IDs and 64-hex job keys. Anything else —
// separators, dots, an empty string — is rejected.
func validRecordName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		default:
			return false
		}
	}
	return true
}

// checkLeaseArgs validates AcquireJobLease's caller-supplied parameters.
func checkLeaseArgs(key, owner string, ttl time.Duration) error {
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid lease key %q", key)
	}
	if owner == "" {
		return errors.New("engine: lease owner must be non-empty")
	}
	if ttl <= 0 {
		return errors.New("engine: lease ttl must be positive")
	}
	return nil
}

// seqFromID parses the numeric sequence out of an engine-generated
// campaign ID ("c000042" → 42).
func seqFromID(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'c' {
		return 0, false
	}
	seq := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
		if seq > 1<<40 {
			return 0, false
		}
	}
	return seq, true
}

// MemStore is the in-memory Store: nothing survives the process, exactly
// like the pre-engine server registry. It is the record layer behind its
// mutex, with a write folding its view into the tables at once, so a cache
// hit takes the same JSON round-trip a SQLiteStore hit does and
// MemStore-backed tests prove the byte-identity the persistent store serves.
type MemStore struct{ records }

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	s := &MemStore{}
	s.init(s, "memory", log.Printf)
	return s
}

// write implements txnLog: the view folds into the tables at once.
func (s *MemStore) write(run func(v *txnView) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view()
	if err := run(v); err != nil {
		return err
	}
	s.fold(v)
	return nil
}

// refresh implements txnLog: the tables are the whole store.
func (s *MemStore) refresh() error { return nil }

// Close implements Store; a MemStore holds nothing to release.
func (s *MemStore) Close() error { return nil }
