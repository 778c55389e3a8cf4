package exec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// tpchGoldenQueries are the row-returning TPC-H statements whose exact
// output is checked into testdata/tpch_golden/. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/exec -run TestTPCHGoldenRows
//
// after an intentional change, and review the diff like any other code.
var tpchGoldenQueries = []struct{ name, sql string }{
	{"top_price", "SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem " +
		"WHERE l_shipdate >= '1995-06-01' AND l_discount BETWEEN 0.05 AND 0.07 " +
		"ORDER BY l_extendedprice DESC, l_orderkey LIMIT 15"},
	{"returns_asc", "SELECT l_quantity, l_tax, l_suppkey FROM lineitem " +
		"WHERE l_returnflag = 'R' AND l_quantity <= 3 ORDER BY l_suppkey, l_quantity LIMIT 20"},
	{"nation_join", "SELECT c.l_orderkey, s.l_orderkey, c.cn_name FROM c JOIN s ON c.cn_name = s.sn_name " +
		"WHERE c.c_mktsegment = 'BUILDING' AND c.o_totalprice > 500000 AND s.o_orderdate < '1992-03-01' " +
		"ORDER BY c.l_orderkey, s.l_orderkey LIMIT 12"},
	{"quantity_join", "SELECT a.l_partkey, b.l_partkey, a.l_quantity FROM a JOIN b ON a.l_quantity = b.l_quantity " +
		"WHERE a.l_quantity < 3 AND b.l_shipdate >= '1998-01-01' " +
		"ORDER BY a.l_partkey DESC, b.l_partkey LIMIT 10"},
}

// TestTPCHGoldenRows executes the row/join statements over the fixed
// TPC-H generator and compares against checked-in expected rows — the
// regression net for the whole parse→plan→scan→TopK/join pipeline.
func TestTPCHGoldenRows(t *testing.T) {
	spec := workload.TPCH(workload.TPCHConfig{Rows: 20_000, Seed: 7})
	tbl := spec.Table
	bids := make([]int, tbl.N)
	for i := range bids {
		bids[i] = i * 16 / tbl.N
	}
	layout := cost.NewLayout("fixed", tbl, bids, 16, spec.ACs)
	st, err := blockstore.Write(t.TempDir(), tbl, bids, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, q := range tpchGoldenQueries {
		p := sqlparse.NewParser(tbl.Schema)
		stmt, err := p.ParseRowSelect(q.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.name, err)
		}
		var res *RowsResult
		var truth [][]int64
		if stmt.Join != nil {
			res, err = RunJoinDelta(st, layout, *stmt.Join, p.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: 2}, nil)
			truth = ReferenceJoin(tbl, *stmt.Join, p.ACs)
		} else {
			res, err = RunRowsDelta(st, layout, *stmt.Row, p.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: 2}, nil)
			truth = ReferenceSelect(tbl, *stmt.Row, p.ACs)
		}
		if err != nil {
			t.Fatalf("%s: exec: %v", q.name, err)
		}
		requireSameTuples(t, q.name+"/vs-reference", res.Rows, truth)

		var b strings.Builder
		fmt.Fprintf(&b, "# %s\n", q.sql)
		for _, row := range res.Rows {
			for j, v := range row {
				if j > 0 {
					b.WriteByte('\t')
				}
				fmt.Fprintf(&b, "%d", v)
			}
			b.WriteByte('\n')
		}
		path := filepath.Join("testdata", "tpch_golden", q.name+".golden")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run with UPDATE_GOLDEN=1 to create): %v", q.name, err)
		}
		if string(want) != b.String() {
			t.Errorf("%s: output diverges from %s\n--- got ---\n%s--- want ---\n%s", q.name, path, b.String(), want)
		}
	}
}
