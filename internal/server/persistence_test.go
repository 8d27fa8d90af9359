package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
// Server over the same state directory) serves byte-identical status, JSON,
// and CSV bodies afterwards, and resubmitting its spec performs zero job
// executions — every result comes from the store, and the warm artifacts
// equal the cold ones byte for byte.
func TestServerRestartRecovery(t *testing.T) {
	state := t.TempDir()
	s1, err := New(Options{Workers: 2, StateDir: state})
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
	// The state directory has one owner at a time: the first server lets
	// go of its lock before the second opens it.
	s1.Close()

	// Restart: a fresh server process over the same state directory.
	ts2 := newTestServer(t, Options{Workers: 2, StateDir: state})
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

// TestStateDirLockExcludesSecondOwner proves the -statedir lock: while a
// server owns a state directory, a second server on it — or any other
// process taking the lock, checked with flock(1) — fails loudly instead of
// racing the owner's recovery, and the directory is free again once the
// owner closes.
func TestStateDirLockExcludesSecondOwner(t *testing.T) {
	flock, err := exec.LookPath("flock")
	if err != nil {
		t.Fatalf("flock(1) not found: %v", err)
	}
	state := t.TempDir()
	owner, err := New(Options{Workers: 1, StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(state, engine.StateFile)); err != nil {
		t.Errorf("state file missing under the state directory: %v", err)
	}
	if second, err := New(Options{Workers: 1, StateDir: state}); err == nil {
		second.Close()
		t.Fatal("a second server opened a state directory another server owns")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Errorf("second owner's error does not say the directory is locked: %v", err)
	}
	lockOther := exec.Command(flock, "--nonblock", "--exclusive", filepath.Join(state, ".lock"), "true")
	if out, err := lockOther.CombinedOutput(); err == nil {
		t.Fatal("another process took a held state-directory lock")
	} else if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("running flock(1): %v (%s)", err, out)
	}

	owner.Close()
	next, err := New(Options{Workers: 1, StateDir: state})
	if err != nil {
		t.Fatalf("state directory still locked after its owner closed: %v", err)
	}
	next.Close()
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
