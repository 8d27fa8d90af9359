package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/revoke"
)

func testSpec(profiles ...string) campaign.Spec {
	if len(profiles) == 0 {
		profiles = []string{"povray"}
	}
	return campaign.Spec{
		Name:      "engine-test",
		Profiles:  profiles,
		MaxLive:   []uint64{1 << 20},
		MinSweeps: 1,
		MaxEvents: 10000,
	}
}

// countingStore wraps a Store and counts job-result writes: PublishJob
// happens exactly once per successfully executed job, so a run with zero
// publishes provably executed nothing.
type countingStore struct {
	Store
	mu      sync.Mutex
	putJobs int
}

func (c *countingStore) PublishJob(key, owner string, jr campaign.JobResult) error {
	c.mu.Lock()
	c.putJobs++
	c.mu.Unlock()
	return c.Store.PublishJob(key, owner, jr)
}

func (c *countingStore) puts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putJobs
}

func artifacts(t *testing.T, res *campaign.Result) (jsonOut, csvOut []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// waitState polls until the campaign leaves the running state.
func waitState(t *testing.T, e *Engine, id string) Campaign {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := e.Get(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if rec.State != StateRunning {
			return rec
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish in time", id)
	return Campaign{}
}

// TestJobKeyDeterminants pins what is — and is not — part of a job's
// content key.
func TestJobKeyDeterminants(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	base := JobKey(spec, job, "")

	// Scheduling-only knobs share the key.
	reID := job
	reID.ID = 99
	if JobKey(spec, reID, "") != base {
		t.Error("expansion ID leaked into the job key")
	}
	windowed := spec
	windowed.TraceWindow = 512
	if JobKey(windowed, job, "") != base {
		t.Error("trace window leaked into the job key")
	}
	// An empty image-sweep list does not survive the JSON hop to a worker
	// (the field is omitempty), so it keys like an absent one.
	emptySweeps := spec
	emptySweeps.ImageSweeps = []revoke.Config{}
	if JobKey(emptySweeps, job, "") != base {
		t.Error("an empty image-sweep list moved the job key")
	}

	// Result-shaping inputs each get their own key.
	distinct := map[string]string{"base": base}
	check := func(name, key string) {
		t.Helper()
		if prev, ok := distinct[name]; ok && prev != key {
			t.Fatalf("key for %s not deterministic", name)
		}
		for other, k := range distinct {
			if other != name && k == key {
				t.Errorf("%s collides with %s", name, other)
			}
		}
		distinct[name] = key
	}
	seeded := job
	seeded.Seed = 7
	check("seed", JobKey(spec, seeded, ""))
	fraction := job
	fraction.Fraction = 0.5
	check("fraction", JobKey(spec, fraction, ""))
	variant := job
	variant.Variant.Revoke.Shards = 4
	check("variant-shards", JobKey(spec, variant, ""))
	renamed := job
	renamed.Variant.Name = "other"
	check("variant-name", JobKey(spec, renamed, ""))
	traced := JobKey(spec, job, "aaaa1111")
	check("trace-hash", traced)
	swept := spec
	swept.SweepImageSelf = true
	check("image-sweep-self", JobKey(swept, job, ""))
}

// TestResolveDedupByteIdentical is the engine-layer acceptance test: a warm
// resolve executes zero jobs and yields exactly the artifacts the cold one
// yielded.
func TestResolveDedupByteIdentical(t *testing.T) {
	cs := &countingStore{Store: NewMemStore()}
	e, err := New(cs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("povray", "hmmer")

	cold, coldStats, err := e.Resolve(context.Background(), spec, ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.FirstError(); err != nil {
		t.Fatal(err)
	}
	if coldStats.CacheHits != 0 || coldStats.Jobs != 2 || cs.puts() != 2 {
		t.Fatalf("cold run: %+v, %d puts", coldStats, cs.puts())
	}

	warm, warmStats, err := e.Resolve(context.Background(), spec, ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.CacheHits != warmStats.Jobs {
		t.Fatalf("warm run executed jobs: %+v", warmStats)
	}
	if cs.puts() != 2 {
		t.Fatalf("warm run stored results: %d puts", cs.puts())
	}
	coldJSON, coldCSV := artifacts(t, cold)
	warmJSON, warmCSV := artifacts(t, warm)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm JSON differs from cold:\n%.1200s\nvs\n%.1200s", coldJSON, warmJSON)
	}
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV differs from cold:\n%s\nvs\n%s", coldCSV, warmCSV)
	}

	// Overlapping — not identical — specs share per-job results.
	overlap, overlapStats, err := e.Resolve(context.Background(), testSpec("hmmer", "xalancbmk"), ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := overlap.FirstError(); err != nil {
		t.Fatal(err)
	}
	if overlapStats.CacheHits != 1 || cs.puts() != 3 {
		t.Fatalf("overlap run: %+v, %d puts (want 1 hit, 3 puts)", overlapStats, cs.puts())
	}
}

// TestSubmitRestartRecovery drives the full persistence story on a real
// state directory: a submitted campaign's record and artifacts survive an
// engine reopen byte for byte, and resubmitting its spec to the fresh
// engine performs zero job executions.
func TestSubmitRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	store1, err := OpenStateDir(dir, true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New(store1, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e1.Submit(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e1, rec.ID)
	if final.State != StateDone || final.CacheHits != 0 {
		t.Fatalf("first run: %+v", final)
	}
	res1, err := e1.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	json1, csv1 := artifacts(t, res1)

	// "Restart": the first owner goes away, and a fresh store and engine
	// open the same directory.
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenStateDir(dir, true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	cs := &countingStore{Store: store2}
	e2, err := New(cs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recovered, ok := e2.Get(rec.ID)
	if !ok {
		t.Fatalf("campaign %s lost across restart", rec.ID)
	}
	recBytes, err := json.Marshal(recovered)
	if err != nil {
		t.Fatal(err)
	}
	finalBytes, err := json.Marshal(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recBytes, finalBytes) {
		t.Fatalf("recovered record differs:\n%s\nvs\n%s", recBytes, finalBytes)
	}
	res2, err := e2.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	json2, csv2 := artifacts(t, res2)
	if !bytes.Equal(json1, json2) || !bytes.Equal(csv1, csv2) {
		t.Error("stored artifacts differ across restart")
	}

	// Resubmission: same spec, fresh process — everything from the store.
	rec2, err := e2.Submit(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID == rec.ID || rec2.Seq <= rec.Seq {
		t.Fatalf("ID sequence did not survive restart: %s after %s", rec2.ID, rec.ID)
	}
	final2 := waitState(t, e2, rec2.ID)
	if final2.State != StateDone {
		t.Fatalf("resubmission: %+v", final2)
	}
	if final2.CacheHits != final2.JobsTotal {
		t.Fatalf("resubmission executed jobs: %d hits of %d", final2.CacheHits, final2.JobsTotal)
	}
	if cs.puts() != 0 {
		t.Fatalf("resubmission stored %d job results; want 0 executions", cs.puts())
	}
	res3, err := e2.Result(rec2.ID)
	if err != nil {
		t.Fatal(err)
	}
	json3, csv3 := artifacts(t, res3)
	if !bytes.Equal(json1, json3) {
		t.Errorf("warm JSON differs from cold:\n%.1200s\nvs\n%.1200s", json1, json3)
	}
	if !bytes.Equal(csv1, csv3) {
		t.Errorf("warm CSV differs from cold:\n%s\nvs\n%s", csv1, csv3)
	}

	// The listing is ordered by submission sequence, restart included.
	list := e2.List()
	if len(list) != 2 || list[0].ID != rec.ID || list[1].ID != rec2.ID {
		t.Fatalf("listing out of order: %+v", list)
	}
}

// TestRecoveryFinalisesInterruptedCampaigns covers the two mid-crash
// shapes: a running record whose Result reached the disk is completed from
// it; one without a Result is marked failed.
func TestRecoveryFinalisesInterruptedCampaigns(t *testing.T) {
	store := NewMemStore()
	e, err := New(store, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	res, _, err := e.Resolve(context.Background(), spec, ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	completed := Campaign{ID: "c000001", Seq: 1, Spec: spec, State: StateRunning, JobsTotal: 1, Created: time.Now().UTC()}
	orphaned := Campaign{ID: "c000002", Seq: 2, Spec: spec, State: StateRunning, JobsTotal: 1, Created: time.Now().UTC()}
	if err := store.PutCampaign(completed); err != nil {
		t.Fatal(err)
	}
	if err := store.PutCampaign(orphaned); err != nil {
		t.Fatal(err)
	}
	if err := store.PutResult(completed.ID, res); err != nil {
		t.Fatal(err)
	}

	e2, err := New(store, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e2.Get(completed.ID)
	if got.State != StateDone || got.JobsDone != 1 || got.Summary == nil {
		t.Errorf("record with stored result not finalised: %+v", got)
	}
	if got.Finished.IsZero() {
		t.Error("finalised record has no finished time")
	}
	got, _ = e2.Get(orphaned.ID)
	if got.State != StateFailed || got.Error == "" {
		t.Errorf("orphaned running record not failed: %+v", got)
	}
	if got.Finished.IsZero() {
		t.Error("failed record has no finished time")
	}
	// The ID sequence resumes past the recovered records.
	rec, err := e2.Submit(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq <= 2 {
		t.Errorf("sequence reused: %+v", rec)
	}
	waitState(t, e2, rec.ID)
}

// TestSharedOpenLeavesRunningRecords pins the secondary-consumer contract:
// an engine over a shared store — a SQLiteStore opened without its state
// directory's owner lock — must not declare another process's live campaign
// interrupted.
func TestSharedOpenLeavesRunningRecords(t *testing.T) {
	store := openTestSQLite(t)
	live := Campaign{ID: "c000001", Seq: 1, Spec: testSpec(), State: StateRunning, JobsTotal: 1, Created: time.Now().UTC()}
	if err := store.PutCampaign(live); err != nil {
		t.Fatal(err)
	}
	e, err := New(store, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e.Get(live.ID)
	if !ok || got.State != StateRunning {
		t.Fatalf("running record touched by a shared open: %+v", got)
	}
	recs, err := store.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != StateRunning {
		t.Fatalf("running record rewritten on disk: %+v", recs)
	}
	// The sequence still fences past the live record.
	rec, err := e.Submit(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq <= 1 {
		t.Fatalf("sequence collided with the live record: %+v", rec)
	}
	waitState(t, e, rec.ID)
}

// TestExperimentsRunnerDedup wires the experiments layer through the
// engine: the same figure computed twice resolves its campaign from the
// store the second time.
func TestExperimentsRunnerDedup(t *testing.T) {
	cs := &countingStore{Store: NewMemStore()}
	e, err := New(cs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Quick()
	opts.Workers = 2
	opts.Runner = e

	first, err := experiments.AblationAssists(opts, "povray")
	if err != nil {
		t.Fatal(err)
	}
	coldPuts := cs.puts()
	if coldPuts == 0 {
		t.Fatal("figure campaign bypassed the engine store")
	}
	second, err := experiments.AblationAssists(opts, "povray")
	if err != nil {
		t.Fatal(err)
	}
	if cs.puts() != coldPuts {
		t.Fatalf("second figure run executed jobs: %d puts after %d", cs.puts(), coldPuts)
	}
	if !slices.Equal(first, second) {
		t.Fatalf("figure rows differ across cache: %+v vs %+v", first, second)
	}
}
