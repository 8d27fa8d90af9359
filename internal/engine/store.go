package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
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
// MemStore honours the contract within one process; SQLiteStore extends it
// across processes sharing one file. The conformance contract is
// executable: storetest.Run exercises every method against any backend, and
// every backend in the tree must pass it.
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

// checkLeaseArgs validates the caller-supplied lease parameters shared by
// every backend's AcquireJobLease.
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
// like the pre-engine server registry. Records are kept as their JSON
// encodings so that a cache hit goes through the same serialisation
// round-trip a SQLiteStore hit does — MemStore-backed tests prove the same
// byte-identity the persistent store serves.
type MemStore struct {
	mu        sync.RWMutex
	campaigns map[string][]byte
	results   map[string][]byte
	jobs      map[string][]byte
	leases    map[string]lease
	signal    leaseSignal
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		campaigns: map[string][]byte{},
		results:   map[string][]byte{},
		jobs:      map[string][]byte{},
		leases:    map[string]lease{},
	}
}

func (s *MemStore) put(m map[string][]byte, key string, v any) error {
	if !validRecordName(key) {
		return fmt.Errorf("engine: invalid record name %q", key)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	m[key] = b
	s.mu.Unlock()
	return nil
}

func (s *MemStore) get(m map[string][]byte, key string, v any) error {
	s.mu.RLock()
	b, ok := m[key]
	s.mu.RUnlock()
	if !ok {
		return ErrNotFound
	}
	return json.Unmarshal(b, v)
}

// PutCampaign implements Store.
func (s *MemStore) PutCampaign(c Campaign) error { return s.put(s.campaigns, c.ID, c) }

// CreateCampaign implements Store: the existence check and the write are
// one critical section, so concurrent creators of the same ID serialise and
// exactly one wins.
func (s *MemStore) CreateCampaign(c Campaign) error {
	if !validRecordName(c.ID) {
		return fmt.Errorf("engine: invalid record name %q", c.ID)
	}
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.campaigns[c.ID]; ok {
		return fmt.Errorf("%w: campaign %s already exists", ErrConflict, c.ID)
	}
	s.campaigns[c.ID] = b
	return nil
}

// Campaign implements Store.
func (s *MemStore) Campaign(id string) (Campaign, error) {
	var c Campaign
	if err := s.get(s.campaigns, id, &c); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// AcquireJobLease implements Store.
func (s *MemStore) AcquireJobLease(key, owner string, ttl time.Duration) error {
	if err := checkLeaseArgs(key, owner, ttl); err != nil {
		return err
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.leases[key]; ok && cur.live(now) && cur.Owner != owner {
		return fmt.Errorf("%w: job %.12s leased by %s", ErrLeaseHeld, key, cur.Owner)
	}
	s.leases[key] = lease{Owner: owner, Expires: now.Add(ttl).UnixNano()}
	return nil
}

// ReleaseJobLease implements Store.
func (s *MemStore) ReleaseJobLease(key, owner string) error {
	s.mu.Lock()
	if cur, ok := s.leases[key]; ok && cur.Owner == owner {
		delete(s.leases, key)
	}
	s.mu.Unlock()
	s.signal.broadcast()
	return nil
}

// PeekJobLease implements Store.
func (s *MemStore) PeekJobLease(key string) (string, bool, error) {
	if !validRecordName(key) {
		return "", false, fmt.Errorf("engine: invalid lease key %q", key)
	}
	s.mu.RLock()
	cur, ok := s.leases[key]
	s.mu.RUnlock()
	if ok && cur.live(time.Now()) {
		return cur.Owner, true, nil
	}
	return "", false, nil
}

// LeaseChanged implements Store.
func (s *MemStore) LeaseChanged() <-chan struct{} { return s.signal.wait() }

// PublishJob implements Store: the job write and the lease release are one
// critical section, so a waiter that observes the lease gone also observes
// the result present.
func (s *MemStore) PublishJob(key, owner string, jr campaign.JobResult) error {
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
	s.mu.Lock()
	s.jobs[key] = b
	if cur, ok := s.leases[key]; ok && cur.Owner == owner {
		delete(s.leases, key)
	}
	s.mu.Unlock()
	s.signal.broadcast()
	return nil
}

// Campaigns implements Store.
func (s *MemStore) Campaigns() ([]Campaign, error) {
	s.mu.RLock()
	encoded := make([][]byte, 0, len(s.campaigns))
	for _, b := range s.campaigns {
		encoded = append(encoded, b)
	}
	s.mu.RUnlock()
	out := make([]Campaign, 0, len(encoded))
	for _, b := range encoded {
		var c Campaign
		if err := json.Unmarshal(b, &c); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// PutResult implements Store.
func (s *MemStore) PutResult(id string, res *campaign.Result) error {
	return s.put(s.results, id, res)
}

// Result implements Store.
func (s *MemStore) Result(id string) (*campaign.Result, error) {
	var res campaign.Result
	if err := s.get(s.results, id, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Job implements Store.
func (s *MemStore) Job(key string) (campaign.JobResult, error) {
	var jr campaign.JobResult
	if err := s.get(s.jobs, key, &jr); err != nil {
		return campaign.JobResult{}, err
	}
	return jr, nil
}

// MaxSeq implements Store. MemStore records cannot corrupt, so the record
// and result keys are the whole evidence.
func (s *MemStore) MaxSeq() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	max := 0
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
	return max, nil
}

// Close implements Store; a MemStore holds nothing to release.
func (s *MemStore) Close() error { return nil }
