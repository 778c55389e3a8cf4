package main

import "testing"

// TestExperimentSmoke runs the deterministic experiments at toy scale —
// the same code paths `qdbench -exp all` drives at full size, but cheap
// enough for the unit suite (and counted by the coverage gate).
func TestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke at -short")
	}
	cfg := config{rows: 6000, queries: 40, episodes: 2, hidden: 8, seed: 42, strategy: "greedy",
		outDir: t.TempDir()} // block stores land here, not the package dir
	for _, tc := range []struct {
		name string
		run  func(config) error
	}{
		{"table2", expTable2},
		{"fig3", expFig3},
		{"fig4", expFig4},
		{"fig5a", func(c config) error { return expFig5(c, "spark") }},
		{"fig5b", func(c config) error { return expFig5(c, "dbms") }},
		{"fig6a", expFig6a},
		{"fig6b", expFig6b},
		{"fig7", expFig7},
		{"fig9", expFig9},
		{"layout", expLayout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
