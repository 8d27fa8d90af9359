package engine

import (
	"bytes"
	"container/list"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// defaultReadCacheBytes is the read-cache budget an engine gets when
// Options.ReadCacheBytes is zero and the store is Shared: shared backends
// pay a syscall round-trip (or worse) per read, so the engine, the figures
// assembly, and the worker read-through all sit behind one bounded cache.
const defaultReadCacheBytes = 64 << 20

// CachedStore is a bounded, singleflight-guarded read cache in front of any
// Store. It exploits the records' own contracts: job results and finished
// campaign Result artifacts are content-addressed or written-once, so a
// value read once never changes and may be served from memory forever
// (within the byte budget, LRU-evicted). Campaign records are mutable and
// shared across processes, so they are never cached, and neither are
// misses — a sibling may publish a key at any moment. Entries are kept as
// canonical JSON bytes and unmarshalled per hit, so a cached record
// round-trips through exactly the serialisation a store read would —
// byte-identity is preserved.
//
// Writes pass through with one exception: PutJob of bytes identical to the
// cached entry is dropped before it reaches the store — job records are
// content-addressed, so the store provably holds the same bytes and the
// duplicate write (on shared backends, an fsync) is pure waste.
type CachedStore struct {
	inner Store

	mu       sync.Mutex
	lru      *list.List // of *cacheEntry, front = most recently used
	byKey    map[string]*list.Element
	bytes    int64
	maxBytes int64
	flight   map[string]*cacheFetch

	hits   *obs.Counter
	misses *obs.Counter
}

// cacheEntry is one cached record: its namespaced key and canonical bytes.
type cacheEntry struct {
	key string
	val []byte
}

// cacheFetch is one in-flight singleflight load; followers block on done
// and share val/err.
type cacheFetch struct {
	done chan struct{}
	val  []byte
	err  error
}

// NewCachedStore wraps inner with a read cache bounded to maxBytes of
// cached record bytes.
func NewCachedStore(inner Store, maxBytes int64) *CachedStore {
	return &CachedStore{
		inner:    inner,
		lru:      list.New(),
		byKey:    map[string]*list.Element{},
		maxBytes: maxBytes,
		flight:   map[string]*cacheFetch{},
	}
}

// instrument implements storeInstrumenter: hit/miss counters for the read
// cache.
func (c *CachedStore) instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits = r.Counter("cherivoke_store_readcache_hits_total",
		"Store reads served from the engine's in-memory read cache.")
	c.misses = r.Counter("cherivoke_store_readcache_misses_total",
		"Store reads the read cache had to forward to the backing store.")
}

// entryOverhead approximates the bookkeeping cost of one entry beyond its
// key and value bytes, so a flood of tiny records cannot blow the budget.
const entryOverhead = 64

// lookup returns the cached bytes for key, refreshing its LRU position.
func (c *CachedStore) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// storeLocked inserts (or refreshes) key's bytes and evicts from the LRU
// tail until the budget holds. Callers hold c.mu.
func (c *CachedStore) storeLocked(key string, val []byte) {
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(val)) - int64(len(ent.val))
		ent.val = val
		c.lru.MoveToFront(el)
	} else {
		c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(key)+len(val)) + entryOverhead
	}
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			break
		}
		ent := c.lru.Remove(el).(*cacheEntry)
		delete(c.byKey, ent.key)
		c.bytes -= int64(len(ent.key)+len(ent.val)) + entryOverhead
	}
}

// fetch serves key from the cache or loads it from the store exactly once
// per concurrent burst: followers of an in-flight load block on it and
// share its outcome instead of stampeding the backing store.
func (c *CachedStore) fetch(key string, load func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		c.hits.Inc()
		return val, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			c.hits.Inc()
		}
		return f.val, f.err
	}
	f := &cacheFetch{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()

	c.misses.Inc()
	f.val, f.err = load()
	c.mu.Lock()
	delete(c.flight, key)
	if f.err == nil {
		// Only positive results are cached: a miss may be a sibling's
		// publish away from becoming a hit, and an error says nothing
		// about the record.
		c.storeLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// Cache key namespaces: jobs and results share one LRU.
const (
	cacheJobPrefix    = "job:"
	cacheResultPrefix = "res:"
)

// Job implements Store, serving cached job bytes when present.
func (c *CachedStore) Job(key string) (campaign.JobResult, error) {
	b, err := c.fetch(cacheJobPrefix+key, func() ([]byte, error) {
		jr, err := c.inner.Job(key)
		if err != nil {
			return nil, err
		}
		return json.Marshal(jr)
	})
	if err != nil {
		return campaign.JobResult{}, err
	}
	var jr campaign.JobResult
	if err := json.Unmarshal(b, &jr); err != nil {
		return campaign.JobResult{}, err
	}
	return jr, nil
}

// PutJob implements Store, dropping writes whose bytes the cache proves
// the store already holds (job records are content-addressed — identical
// key means identical bytes).
func (c *CachedStore) PutJob(key string, jr campaign.JobResult) error {
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	if cur, ok := c.lookup(cacheJobPrefix + key); ok && bytes.Equal(cur, b) {
		return nil
	}
	if err := c.inner.PutJob(key, jr); err != nil {
		return err
	}
	c.mu.Lock()
	c.storeLocked(cacheJobPrefix+key, b)
	c.mu.Unlock()
	return nil
}

// Result implements Store, serving cached artifact bytes when present.
func (c *CachedStore) Result(id string) (*campaign.Result, error) {
	b, err := c.fetch(cacheResultPrefix+id, func() ([]byte, error) {
		res, err := c.inner.Result(id)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
	if err != nil {
		return nil, err
	}
	var res campaign.Result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// PutResult implements Store, caching the just-written artifact (a Result
// is written once per campaign, so the write is the authoritative bytes).
func (c *CachedStore) PutResult(id string, res *campaign.Result) error {
	if err := c.inner.PutResult(id, res); err != nil {
		return err
	}
	if b, err := json.Marshal(res); err == nil {
		c.mu.Lock()
		c.storeLocked(cacheResultPrefix+id, b)
		c.mu.Unlock()
	}
	return nil
}

// PutCampaign implements Store. Campaign records are mutable and shared,
// so they bypass the cache entirely.
func (c *CachedStore) PutCampaign(rec Campaign) error { return c.inner.PutCampaign(rec) }

// CreateCampaign implements Store (uncached — see PutCampaign).
func (c *CachedStore) CreateCampaign(rec Campaign) error { return c.inner.CreateCampaign(rec) }

// Campaign implements Store (uncached — see PutCampaign).
func (c *CachedStore) Campaign(id string) (Campaign, error) { return c.inner.Campaign(id) }

// Campaigns implements Store (uncached — see PutCampaign).
func (c *CachedStore) Campaigns() ([]Campaign, error) { return c.inner.Campaigns() }

// AcquireJobLease implements Store, forwarding: leases are live mutable
// coordination state, never cached.
func (c *CachedStore) AcquireJobLease(key, owner string, ttl time.Duration) error {
	return c.inner.AcquireJobLease(key, owner, ttl)
}

// ReleaseJobLease implements Store, forwarding.
func (c *CachedStore) ReleaseJobLease(key, owner string) error {
	return c.inner.ReleaseJobLease(key, owner)
}

// PeekJobLease implements Store, forwarding.
func (c *CachedStore) PeekJobLease(key string) (string, bool, error) {
	return c.inner.PeekJobLease(key)
}

// LeaseChanged implements Store, forwarding.
func (c *CachedStore) LeaseChanged() <-chan struct{} { return c.inner.LeaseChanged() }

// PublishJob implements Store, forwarding and caching the published bytes
// on success so the campaign pool's follow-up put of the same record is
// dropped.
func (c *CachedStore) PublishJob(key, owner string, jr campaign.JobResult) error {
	if err := c.inner.PublishJob(key, owner, jr); err != nil {
		return err
	}
	if b, err := json.Marshal(jr); err == nil {
		c.mu.Lock()
		c.storeLocked(cacheJobPrefix+key, b)
		c.mu.Unlock()
	}
	return nil
}

// MaxSeq implements Store, forwarding: sequence evidence must be live.
func (c *CachedStore) MaxSeq() (int, error) { return c.inner.MaxSeq() }

// Close implements Store, forwarding.
func (c *CachedStore) Close() error { return c.inner.Close() }
