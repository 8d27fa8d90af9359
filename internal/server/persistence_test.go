package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
)

// get fetches url and returns the status code, body bytes, and headers.
func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestServerRestartRecovery is the HTTP-layer acceptance test for the
// store-backed engine: a campaign completed before a "restart" (a fresh
// Server over the same store file) serves byte-identical status, JSON,
// and CSV bodies afterwards, and resubmitting its spec performs zero job
// executions — every result comes from the store, and the warm artifacts
// equal the cold ones byte for byte.
func TestServerRestartRecovery(t *testing.T) {
	state := "sqlite:" + filepath.Join(t.TempDir(), "state.cvk")
	s1, err := New(Options{Workers: 2, Store: state})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	sub := submit(t, ts1, testSpec(), 2)
	if st := waitDone(t, ts1, sub.ID); st.State != StateDone {
		t.Fatalf("first run: %q (%s)", st.State, st.Error)
	}
	_, status1, _ := get(t, ts1.URL+"/campaigns/"+sub.ID)
	_, json1, _ := get(t, ts1.URL+"/campaigns/"+sub.ID+"/results")
	_, csv1, _ := get(t, ts1.URL+"/campaigns/"+sub.ID+"/results?format=csv")
	ts1.Close()
	s1.Close()

	// Restart: a fresh server process over the same store file.
	ts2 := newTestServer(t, Options{Workers: 2, Store: state})
	code, status2, _ := get(t, ts2.URL+"/campaigns/"+sub.ID)
	if code != http.StatusOK {
		t.Fatalf("status after restart: %d", code)
	}
	if !bytes.Equal(status1, status2) {
		t.Errorf("status body differs across restart:\n%s\nvs\n%s", status1, status2)
	}
	_, json2, _ := get(t, ts2.URL+"/campaigns/"+sub.ID+"/results")
	_, csv2, _ := get(t, ts2.URL+"/campaigns/"+sub.ID+"/results?format=csv")
	if !bytes.Equal(json1, json2) {
		t.Error("JSON artifact differs across restart")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("CSV artifact differs across restart")
	}

	// Resubmission of the identical spec: all jobs served from the store.
	sub2 := submit(t, ts2, testSpec(), 2)
	st := waitDone(t, ts2, sub2.ID)
	if st.State != StateDone {
		t.Fatalf("resubmission: %q (%s)", st.State, st.Error)
	}
	if st.CacheHits != st.JobsTotal || st.JobsTotal == 0 {
		t.Fatalf("resubmission executed jobs: %d hits of %d", st.CacheHits, st.JobsTotal)
	}
	_, json3, _ := get(t, ts2.URL+"/campaigns/"+sub2.ID+"/results")
	_, csv3, _ := get(t, ts2.URL+"/campaigns/"+sub2.ID+"/results?format=csv")
	if !bytes.Equal(json1, json3) {
		t.Errorf("warm JSON differs from cold:\n%.1200s\nvs\n%.1200s", json1, json3)
	}
	if !bytes.Equal(csv1, csv3) {
		t.Errorf("warm CSV differs from cold:\n%s\nvs\n%s", csv1, csv3)
	}

	// The listing spans the restart, in submission order.
	var list []Status
	if code := getJSON(t, ts2.URL+"/campaigns", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list) != 2 || list[0].ID != sub.ID || list[1].ID != sub2.ID {
		t.Fatalf("listing after restart: %+v", list)
	}
}

// TestLoneServerRecovers pins restart recovery at the HTTP layer: a server
// opened on a sqlite: file beside a live handle serves that handle's
// running campaign as running, another process — flock(1) — finds the
// file's lock held shared, and a server opened once every handle has
// closed serves the campaign failed, interrupted by the restart.
func TestLoneServerRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.cvk")
	seed, err := engine.OpenSQLiteStore(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	running := engine.Campaign{ID: "c000001", Seq: 1, Spec: testSpec(), State: StateRunning, JobsTotal: 1, Created: time.Now().UTC()}
	if err := seed.PutCampaign(running); err != nil {
		t.Fatal(err)
	}
	status := func(ts *httptest.Server) Status {
		var st Status
		if code := getJSON(t, ts.URL+"/campaigns/"+running.ID, &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		return st
	}

	beside, err := New(Options{Workers: 1, Store: "sqlite:" + path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(beside.Handler())
	if st := status(ts); st.State != StateRunning {
		t.Errorf("a server opened beside a live handle serves %+v, want running", st)
	}
	flock, err := exec.LookPath("flock")
	if err != nil {
		t.Fatalf("flock(1) not found: %v", err)
	}
	for mode, free := range map[string]bool{"--exclusive": false, "--shared": true} {
		if err := exec.Command(flock, "--nonblock", mode, path+".lock", "true").Run(); (err == nil) != free {
			t.Errorf("flock(1) %s on the lock of a held store: %v", mode, err)
		}
	}
	ts.Close()
	beside.Close()
	seed.Close()

	lone := newTestServer(t, Options{Workers: 1, Store: "sqlite:" + path})
	if st := status(lone); st.State != StateFailed || st.Error != "interrupted by restart before completion" || st.Finished == nil {
		t.Errorf("a server opened alone serves %+v, want the campaign failed by recovery", st)
	}
}

// TestServerCSVContentDisposition pins the download filename: derived from
// the campaign ID, attachment disposition.
func TestServerCSVContentDisposition(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	sub := submit(t, ts, testSpec(), 2)
	if st := waitDone(t, ts, sub.ID); st.State != StateDone {
		t.Fatalf("campaign: %q (%s)", st.State, st.Error)
	}
	_, _, headers := get(t, ts.URL+"/campaigns/"+sub.ID+"/results?format=csv")
	want := `attachment; filename="` + sub.ID + `.csv"`
	if got := headers.Get("Content-Disposition"); got != want {
		t.Errorf("Content-Disposition %q, want %q", got, want)
	}
	// The JSON artifact is not a download.
	_, _, headers = get(t, ts.URL+"/campaigns/"+sub.ID+"/results")
	if got := headers.Get("Content-Disposition"); got != "" {
		t.Errorf("JSON results carry Content-Disposition %q", got)
	}
}
