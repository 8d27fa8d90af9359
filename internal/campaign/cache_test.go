package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// mapCache is a JobCache over a plain map, keyed by the job with its
// expansion ID zeroed — the same "everything but the ID" discipline the
// engine's content keys use. The pool only reads a cache, so mapCache is
// also the Runner that fills it: it executes in process and records each
// successful result, the way internal/engine's runner publishes to the
// store its cache reads.
type mapCache struct {
	mu      sync.Mutex
	results map[string]JobResult
	stores  int
}

func newMapCache() *mapCache { return &mapCache{results: map[string]JobResult{}} }

func mapCacheKey(job Job) string {
	job.ID = 0
	b, _ := json.Marshal(job)
	return string(b)
}

func (c *mapCache) Lookup(_ Spec, job Job) (JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	jr, ok := c.results[mapCacheKey(job)]
	return jr, ok
}

func (c *mapCache) RunJob(_ context.Context, spec Spec, job Job) (JobResult, error) {
	jr := ExecuteJob(spec, job, nil)
	if jr.Error == "" {
		c.mu.Lock()
		c.stores++
		c.results[mapCacheKey(job)] = jr
		c.mu.Unlock()
	}
	return jr, nil
}

func cacheSpec() Spec {
	return Spec{
		Name:      "cache-test",
		Profiles:  []string{"povray", "hmmer"},
		MaxLive:   []uint64{1 << 20},
		MinSweeps: 1,
		MaxEvents: 10000,
	}
}

// TestRunJobCache covers the cache hook's contract: a cold run hands every
// job to the runner, a warm run executes nothing and produces
// byte-identical artifacts, progress events mark cached jobs, and hits are
// re-stamped with the current expansion's job ID.
func TestRunJobCache(t *testing.T) {
	spec := cacheSpec()
	cache := newMapCache()

	artifacts := func(res *Result) ([]byte, []byte) {
		var jb, cb bytes.Buffer
		if err := res.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), cb.Bytes()
	}

	cold, err := Run(context.Background(), spec, RunOptions{Workers: 2, Cache: cache, Runner: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.FirstError(); err != nil {
		t.Fatal(err)
	}
	if cache.stores != len(cold.Jobs) {
		t.Fatalf("cold run stored %d results for %d jobs", cache.stores, len(cold.Jobs))
	}

	var cachedEvents int
	warm, err := Run(context.Background(), spec, RunOptions{
		Workers: 2,
		Cache:   cache,
		Runner:  cache,
		OnProgress: func(p Progress) {
			if p.Cached {
				cachedEvents++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores != len(cold.Jobs) {
		t.Fatalf("warm run executed jobs: %d stores after both runs", cache.stores)
	}
	if cachedEvents != len(cold.Jobs) {
		t.Fatalf("%d cached progress events, want %d", cachedEvents, len(cold.Jobs))
	}
	coldJSON, coldCSV := artifacts(cold)
	warmJSON, warmCSV := artifacts(warm)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm JSON artifact differs from cold:\n%.1200s\nvs\n%.1200s", coldJSON, warmJSON)
	}
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV artifact differs from cold:\n%s\nvs\n%s", coldCSV, warmCSV)
	}
}

// TestRunJobCacheRestampsID pins the re-stamp: a hit stored under one
// expansion ID is served at another campaign's ID for the same axes.
func TestRunJobCacheRestampsID(t *testing.T) {
	cache := newMapCache()
	wide := cacheSpec()
	if _, err := Run(context.Background(), wide, RunOptions{Workers: 2, Cache: cache, Runner: cache}); err != nil {
		t.Fatal(err)
	}

	// hmmer was job 1 in the wide spec; alone it expands as job 0.
	narrow := cacheSpec()
	narrow.Profiles = []string{"hmmer"}
	res, err := Run(context.Background(), narrow, RunOptions{Workers: 1, Cache: cache, Runner: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores != 2 {
		t.Fatalf("narrow run missed the cache: %d stores", cache.stores)
	}
	jr := res.Jobs[0]
	if jr.Job.ID != 0 || jr.Job.Profile != "hmmer" {
		t.Fatalf("cached hit not re-stamped: job %+v", jr.Job)
	}
	if jr.Stats.Sweeps == 0 {
		t.Fatal("cached hit lost its measurements")
	}
}
