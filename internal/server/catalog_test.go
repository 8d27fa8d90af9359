package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/livetrace"
)

// catalogRow matches a markdown table row whose first cell names a metric
// family, with or without a label list after it.
var catalogRow = regexp.MustCompile("^\\| `(cherivoke_[a-z0-9_]+)")

// documentedFamilies returns the metric families named in the first cell
// of the tables of the markdown file at path.
func documentedFamilies(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := catalogRow.FindStringSubmatch(line); m != nil {
			names[m[1]] = true
		}
	}
	return names
}

// registeredFamilies adds to names every family a /metrics page declares
// with a # TYPE line.
func registeredFamilies(t *testing.T, baseURL string, names map[string]bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			names[fields[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// sortedDiff returns the names in a that are not in b, sorted.
func sortedDiff(a, b map[string]bool) []string {
	var out []string
	for name := range a {
		if !b[name] {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// TestMetricCatalogMatchesRegistry checks docs/OBSERVABILITY.md's metric
// catalog against the code: a worker and a coordinator over one sqlite:
// store run a small campaign and one /live session, and the metric
// families their /metrics pages declare must be exactly the families the
// catalog's tables name. The table in docs/LIVE.md must name a subset.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	const token = "catalog-token"
	store := "sqlite:" + filepath.Join(t.TempDir(), "store.db")
	worker := newTestServer(t, Options{Workers: 1, Worker: true, AuthToken: token, Store: store})
	coord := newTestServer(t, Options{Workers: 1, Store: store, WorkerURLs: []string{worker.URL}, AuthToken: token, TraceDir: t.TempDir()})

	sub := submit(t, coord, testSpec(), 1)
	if st := waitDone(t, coord, sub.ID); st.State != StateDone {
		t.Fatalf("campaign state %q (%s)", st.State, st.Error)
	}
	encoded, _ := recordLiveTrace(t)
	info, err := streamLive(coord, encoded, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != livetrace.StateDone {
		t.Fatalf("live session state %q (%s)", info.State, info.Error)
	}

	registered := map[string]bool{}
	for _, ts := range []*httptest.Server{worker, coord} {
		registeredFamilies(t, ts.URL, registered)
	}
	documented := documentedFamilies(t, filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if missing := sortedDiff(registered, documented); len(missing) > 0 {
		t.Errorf("registered but not in OBSERVABILITY.md's catalog: %v", missing)
	}
	if stale := sortedDiff(documented, registered); len(stale) > 0 {
		t.Errorf("in OBSERVABILITY.md's catalog but never registered: %v", stale)
	}
	live := documentedFamilies(t, filepath.Join("..", "..", "docs", "LIVE.md"))
	if extra := sortedDiff(live, documented); len(extra) > 0 {
		t.Errorf("in LIVE.md's table but not in OBSERVABILITY.md's catalog: %v", extra)
	}
	if len(live) == 0 {
		t.Error("LIVE.md's table names no metric family")
	}
	t.Logf("%d families registered, %d documented", len(registered), len(documented))
}
