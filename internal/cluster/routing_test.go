package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serve"
	"repro/internal/table"
)

// TestStatementRoutingParity sends every text of
// sqlparse.TestParseStatementRouting to a standalone server and to a
// front door over the same rows: both tiers route through
// Parser.ParseStatement, so they must answer with the same status code
// and — for rejected texts — the same error text, and accepted texts
// with the same counts and tuples. The one designed difference is the
// join, which a front door refuses with 501.
func TestStatementRoutingParity(t *testing.T) {
	schema := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "selector", Kind: table.Numeric, Min: 0, Max: 9},
	})
	tbl := table.New(schema, 400)
	for i := 0; i < 400; i++ {
		tbl.AppendRow([]int64{int64(i), int64(i % 10)})
	}
	layout := rangeLayout(tbl, 4)

	root := t.TempDir()
	if err := serve.Init(root, tbl, layout); err != nil {
		t.Fatal(err)
	}
	alone, err := serve.New(root, testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	aloneHTTP := httptest.NewServer(serve.Handler(alone))
	defer aloneHTTP.Close()

	dir := t.TempDir()
	if _, err := InitShards(dir, tbl, layout, nil, 2); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for id := 0; id < 2; id++ {
		label := fmt.Sprintf("shard_%03d", id)
		s, err := serve.New(filepath.Join(dir, label), testConfig(label))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		hs := httptest.NewServer(ShardHandler(s))
		defer hs.Close()
		addrs = append(addrs, hs.URL)
	}
	fd, err := NewFrontDoor(addrs, FrontDoorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fdHTTP := httptest.NewServer(FrontDoorHandler(fd))
	defer fdHTTP.Close()

	type reply struct {
		Error       string           `json:"error"`
		RowsMatched int64            `json:"rows_matched"`
		Rows        []serve.QueryRow `json:"rows"`
		Data        [][]int64        `json:"data"`
	}
	ask := func(url, sql string) (int, reply) {
		resp := postQuery(t, url, sql)
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var r reply
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("%s: %q: reply %s: %v", url, sql, raw, err)
		}
		return resp.StatusCode, r
	}
	cases := []struct {
		sql    string
		status int
		join   bool
	}{
		{"x >= 10 AND x < 20", http.StatusOK, false},
		{"SELECT COUNT(*), MAX(x) FROM t WHERE x < 50", http.StatusOK, false},
		{"SELECT x FROM t WHERE x < 5 ORDER BY x LIMIT 3", http.StatusOK, false},
		{"SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 AND b.x < 2", http.StatusOK, true},
		{"SELECT * FROM t WHERE x < 10", http.StatusOK, false},
		{"selector >= 5", http.StatusOK, false},
		{"SELECT NOPE(x) FROM t WHERE x < 5", http.StatusBadRequest, false},
		{"SELECT x FROM t ORDER BY nope", http.StatusBadRequest, false},
		{"SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 OR b.x < 2", http.StatusBadRequest, false},
		{"SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < b.x", http.StatusBadRequest, false},
		{"SELECT a.x, b.x FROM a JOIN b ON a.x < b.x WHERE a.x < 2", http.StatusBadRequest, false},
		{"SELECT a.x FROM a JOIN a ON a.x = a.x WHERE a.x < 2", http.StatusBadRequest, false},
	}
	for _, c := range cases {
		aCode, a := ask(aloneHTTP.URL, c.sql)
		fCode, f := ask(fdHTTP.URL, c.sql)
		if aCode != c.status {
			t.Errorf("%q: standalone status %d (%s), want %d", c.sql, aCode, a.Error, c.status)
		}
		if c.join {
			if fCode != http.StatusNotImplemented {
				t.Errorf("%q: front door status %d (%s), want 501", c.sql, fCode, f.Error)
			}
			continue
		}
		if fCode != aCode || f.Error != a.Error {
			t.Errorf("%q: front door answered %d %q, standalone %d %q", c.sql, fCode, f.Error, aCode, a.Error)
		}
		if aCode != http.StatusOK {
			if a.Error == "" {
				t.Errorf("%q: rejected without an error text", c.sql)
			}
			continue
		}
		if f.RowsMatched != a.RowsMatched || !reflect.DeepEqual(f.Rows, a.Rows) || !reflect.DeepEqual(f.Data, a.Data) {
			t.Errorf("%q: front door answered %+v, standalone %+v", c.sql, f, a)
		}
	}
}
