package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// flakyShard fronts one real shard server and answers the first failN
// requests to each path in fail with that path's status, counting every
// request per path.
type flakyShard struct {
	next  http.Handler
	mu    sync.Mutex
	fail  map[string]int // path -> status to answer
	failN int
	seen  map[string]int
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.seen[r.URL.Path]++
	n := f.seen[r.URL.Path]
	status, flaky := f.fail[r.URL.Path]
	f.mu.Unlock()
	if flaky && (f.failN < 0 || n <= f.failN) {
		http.Error(w, `{"error": "injected"}`, status)
		return
	}
	f.next.ServeHTTP(w, r)
}

func (f *flakyShard) count(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[path]
}

// startFlakyShard serves the whole fixture table as one shard behind a
// flakyShard; failN < 0 fails every request to the listed paths.
func startFlakyShard(t *testing.T, fail map[string]int, failN int) (*flakyShard, string) {
	t.Helper()
	tbl := fixtureTable(1000)
	dir := t.TempDir()
	asn := ShardAssignment{ID: 0, Leaves: []int{0, 1, 2, 3}}
	if err := InitShard(dir, tbl, rangeLayout(tbl, 4), nil, asn); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(ShardRoot(dir, asn.ID), testConfig("shard_000"))
	if err != nil {
		t.Fatal(err)
	}
	f := &flakyShard{next: ShardHandler(s), fail: fail, failN: failN, seen: map[string]int{}}
	hs := httptest.NewServer(f)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return f, hs.URL
}

// TestRetryOnceAfter503: a shard that answers 503 once and then succeeds
// costs exactly one retry on every kind of shard call — the summary
// fetch at start-up, the query scatter (reported as "retries": 1 in the
// reply) and the ingest forward.
func TestRetryOnceAfter503(t *testing.T) {
	f, addr := startFlakyShard(t, map[string]int{
		"/cluster/summary": http.StatusServiceUnavailable,
		"/query":           http.StatusServiceUnavailable,
		"/ingest":          http.StatusServiceUnavailable,
	}, 1)
	fd, err := NewFrontDoor([]string{addr}, FrontDoorOptions{})
	if err != nil {
		t.Fatal("a summary fetch that fails once must be retried:", err)
	}
	if n := f.count("/cluster/summary"); n != 2 {
		t.Fatalf("summary fetched %d times, want 2", n)
	}

	ts := httptest.NewServer(FrontDoorHandler(fd))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sql": "t >= 500"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Retries != 1 || qr.ShardsFailed != 0 || qr.Partial || qr.RowsMatched != 500 {
		t.Fatalf("status %d reply %+v, want 500 matches after retries: 1", resp.StatusCode, qr)
	}
	if n := f.count("/query"); n != 2 {
		t.Fatalf("shard saw %d /query requests, want 2", n)
	}

	ing, err := fd.Ingest(serve.IngestRequest{Rows: [][]json.RawMessage{{json.RawMessage("7"), json.RawMessage(`"a"`)}}})
	if err != nil || ing.Inserted != 1 {
		t.Fatalf("ingest %+v %v, want 1 row inserted after one retry", ing, err)
	}
	if n := f.count("/ingest"); n != 2 {
		t.Fatalf("shard saw %d /ingest requests, want 2", n)
	}
}

// TestNoRetryOn4xx: a 400 blames the request, not the shard, so the
// front door never repeats it, however large its retry budget.
func TestNoRetryOn4xx(t *testing.T) {
	f, addr := startFlakyShard(t, map[string]int{
		"/query":  http.StatusBadRequest,
		"/ingest": http.StatusBadRequest,
	}, -1)
	fd, err := NewFrontDoor([]string{addr}, FrontDoorOptions{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ce ClientError
	if _, err := fd.Query("t >= 500"); !errors.As(err, &ce) {
		t.Fatalf("query err %v, want the shard's ClientError", err)
	}
	if n := f.count("/query"); n != 1 {
		t.Fatalf("shard saw %d /query requests, want 1 (a 400 is never retried)", n)
	}
	if _, err := fd.Ingest(serve.IngestRequest{Rows: [][]json.RawMessage{{json.RawMessage("7"), json.RawMessage(`"a"`)}}}); err == nil {
		t.Fatal("ingest answered 400 must fail")
	}
	if n := f.count("/ingest"); n != 1 {
		t.Fatalf("shard saw %d /ingest requests, want 1 (a 400 is never retried)", n)
	}
}

// TestEveryShard4xxIsAClientError: when every owning shard blames the
// request, the front door answers with that 4xx and the shard's text, not
// 503 "all owning shards failed"; a 5xx among the failures makes it a
// shard failure again.
func TestEveryShard4xxIsAClientError(t *testing.T) {
	_, bad1 := startFlakyShard(t, map[string]int{"/query": http.StatusBadRequest}, -1)
	_, bad2 := startFlakyShard(t, map[string]int{"/query": http.StatusBadRequest}, -1)
	_, down := startFlakyShard(t, map[string]int{"/query": http.StatusServiceUnavailable}, -1)
	for _, tc := range []struct {
		name   string
		addrs  []string
		status int
		text   string
	}{
		{"every shard 400", []string{bad1, bad2}, http.StatusBadRequest, "shard returned 400: injected"},
		{"400 and 503", []string{bad1, down}, http.StatusServiceUnavailable, "all owning shards failed"},
	} {
		fd, err := NewFrontDoor(tc.addrs, FrontDoorOptions{Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(FrontDoorHandler(fd))
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sql": "t >= 500"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != tc.status || !strings.Contains(string(body), tc.text) {
			t.Errorf("%s: status %d %s, want %d with %q", tc.name, resp.StatusCode, body, tc.status, tc.text)
		}
	}
}
