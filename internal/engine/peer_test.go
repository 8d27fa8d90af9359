package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
)

// gatedRunner holds every job until gate closes, then executes it in
// process: a campaign that stays running for as long as a test needs.
type gatedRunner struct{ gate chan struct{} }

func (g gatedRunner) RunJob(ctx context.Context, key string, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return campaign.JobResult{}, ctx.Err()
	}
	return (&LocalRunner{}).RunJob(ctx, key, spec, job)
}

// recordJSON is a campaign record's status encoding.
func recordJSON(t *testing.T, rec Campaign) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPeerReadsStoredStatus opens a second engine on one sqlite: file while
// the first engine's campaign is held running, and requires the peer to
// follow that campaign to its end through the store: the peer's
// subscription carries no events and closes once the campaign ends, and
// once the first engine reads done, so do the peer's Get and List, with the
// same record bytes. The peer serves the same artifact, knows the ID for
// Cancel, and has no live stream to offer once the campaign is done.
func TestPeerReadsStoredStatus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.db")
	open := func() *SQLiteStore {
		s, err := OpenSQLiteStore(path, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	gate := make(chan struct{})
	a, err := New(open(), Options{Runner: gatedRunner{gate}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Submit(context.Background(), testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(open(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get(rec.ID); !ok || got.State != StateRunning {
		t.Fatalf("peer reads %+v (known %v) while the campaign is held running", got, ok)
	}
	ch, unsubscribe, live := b.Subscribe(rec.ID)
	if !live {
		t.Fatal("peer offers no stream for a running campaign")
	}
	defer unsubscribe()
	select {
	case ev, open := <-ch:
		t.Fatalf("peer stream delivered %+v (open %v) while the campaign is held running", ev, open)
	case <-time.After(2 * storePoll):
	}

	close(gate)
	select {
	case ev, open := <-ch:
		if open {
			t.Fatalf("peer stream delivered %+v, want no events", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer stream still open 10 s after the campaign was released")
	}
	final := waitState(t, a, rec.ID)
	if final.State != StateDone {
		t.Fatalf("campaign ended %q (error %q)", final.State, final.Error)
	}
	got, ok := b.Get(rec.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("peer Get reads %q after the first engine read done", got.State)
	}
	if want := recordJSON(t, final); !bytes.Equal(recordJSON(t, got), want) {
		t.Errorf("peer record differs:\n%s\nvs\n%s", recordJSON(t, got), want)
	}
	if list := b.List(); len(list) != 1 || list[0].State != StateDone {
		t.Errorf("peer List reads %+v after the first engine read done", list)
	}

	resA, err := a.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	jsonA, csvA := artifacts(t, resA)
	jsonB, csvB := artifacts(t, resB)
	if !bytes.Equal(jsonA, jsonB) || !bytes.Equal(csvA, csvB) {
		t.Error("peer serves a different artifact")
	}
	if !b.Cancel(rec.ID) {
		t.Error("peer Cancel does not know the campaign")
	}
	if _, _, live := b.Subscribe(rec.ID); live {
		t.Error("peer offers a live stream for a finished campaign")
	}
}

// TestFinishedCampaignReadsFromStore pins a finished campaign's answers once
// its run has left memory, on both backends: Get and List give the
// record the stream's last status event carried, byte for byte; Result the
// artifact a direct run gives; Subscribe no live stream; Cancel knows the
// ID. The engine then holds no run at all.
func TestFinishedCampaignReadsFromStore(t *testing.T) {
	_, wantJSON, wantCSV := runLocal(t, testSpec())
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"MemStore", func(*testing.T) Store { return NewMemStore() }},
		{"SQLite", func(t *testing.T) Store { return openTestSQLite(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			e, err := New(tc.open(t), Options{Runner: gatedRunner{gate}, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := e.Submit(context.Background(), testSpec(), 1)
			if err != nil {
				t.Fatal(err)
			}
			ch, unsubscribe, live := e.Subscribe(rec.ID)
			if !live {
				t.Fatal("a held campaign has no live stream")
			}
			defer unsubscribe()
			close(gate)
			var last *Campaign
			for ev := range ch {
				if ev.Type == "status" {
					last = ev.Status
				}
			}
			if last == nil || last.State != StateDone {
				t.Fatalf("stream ended on %+v, want a done status", last)
			}

			deadline := time.Now().Add(10 * time.Second)
			for {
				e.mu.Lock()
				n := len(e.runs)
				e.mu.Unlock()
				if n == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d runs still in memory after the campaign finished", n)
				}
				time.Sleep(time.Millisecond)
			}

			want := recordJSON(t, *last)
			got, ok := e.Get(rec.ID)
			if !ok || !bytes.Equal(recordJSON(t, got), want) {
				t.Errorf("Get reads %s (known %v), want %s", recordJSON(t, got), ok, want)
			}
			if list := e.List(); len(list) != 1 || !bytes.Equal(recordJSON(t, list[0]), want) {
				t.Errorf("List reads %+v, want the one record %s", list, want)
			}
			res, err := e.Result(rec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if gotJSON, gotCSV := artifacts(t, res); !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
				t.Error("stored artifact differs from a direct run's")
			}
			if _, _, live := e.Subscribe(rec.ID); live {
				t.Error("a finished campaign offers a live stream")
			}
			if !e.Cancel(rec.ID) {
				t.Error("Cancel does not know a finished campaign")
			}
			if e.Cancel("c999999") {
				t.Error("Cancel knows an ID no store holds")
			}
			if _, ok := e.Get("c999999"); ok {
				t.Error("Get knows an ID no store holds")
			}
		})
	}
}
