package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentSmoke runs the deterministic experiments at toy scale —
// the same code paths `qdbench -exp all` drives at full size, but cheap
// enough for the unit suite (and counted by the coverage gate).
//
// The simulator's figures (fig5a, fig5b, fig7) ignore episodes and hidden,
// so their stdout here is the CLI's, and it is pinned byte for byte. After
// a deliberate change to the cost model, regenerate the goldens with
//
//	for x in fig5a fig5b fig7; do go run ./cmd/qdbench -exp $x -rows 6000 -queries 40 > cmd/qdbench/testdata/$x.golden; done
func TestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke at -short")
	}
	cfg := config{rows: 6000, queries: 40, episodes: 2, hidden: 8, seed: 42, strategy: "greedy",
		outDir: t.TempDir()} // block stores land here, not the package dir
	for _, tc := range []struct {
		name   string
		run    func(config) error
		golden bool // stdout must equal testdata/<name>.golden
	}{
		{"table2", expTable2, false},
		{"fig3", expFig3, false},
		{"fig4", expFig4, false},
		{"fig5a", func(c config) error { return expFig5(c, "spark") }, true},
		{"fig5b", func(c config) error { return expFig5(c, "dbms") }, true},
		{"fig6a", expFig6a, false},
		{"fig6b", expFig6b, false},
		{"fig7", expFig7, true},
		{"fig9", expFig9, false},
		{"layout", expLayout, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.golden {
				if err := tc.run(cfg); err != nil {
					t.Fatal(err)
				}
				return
			}
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			stdout := os.Stdout
			os.Stdout = w
			out := make(chan []byte)
			go func() {
				b, _ := io.ReadAll(r)
				out <- b
			}()
			err = tc.run(cfg)
			os.Stdout = stdout
			w.Close()
			got := <-out
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}
