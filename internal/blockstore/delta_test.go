package blockstore

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestParseDeltaSegName(t *testing.T) {
	if name := DeltaSegName(7); name != "delta_000007.qdb" {
		t.Fatalf("name %q", name)
	}
	for _, tc := range []struct {
		name string
		id   int
		ok   bool
	}{
		{"delta_000007.qdb", 7, true},
		{"delta_000007.qdb.quarantined", 7, true},
		{"delta_xyz.qdb", 0, false},
		{"block_000001.qdb", 0, false},
		{"delta_000001.txt", 0, false},
	} {
		id, ok := ParseDeltaSegName(tc.name)
		if ok != tc.ok || (ok && id != tc.id) {
			t.Errorf("parse %q = (%d, %v), want (%d, %v)", tc.name, id, ok, tc.id, tc.ok)
		}
	}
}

// TestScanQuarantinesTornDeltaSegment is the crash-recovery contract: a
// delta directory holding a partially written segment (process died
// mid-append) must scan, return the intact segments, and set the torn
// file aside with a warning instead of failing.
func TestScanQuarantinesTornDeltaSegment(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(100, 4)
	ncols := spec.Table.Schema.NumCols()

	// Two sealed segments; tear the tail off the second.
	for id := 0; id < 2; id++ {
		if _, err := WriteSegment(filepath.Join(dir, DeltaSegName(id)), spec.Table, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	torn := filepath.Join(dir, DeltaSegName(1))
	info, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	segs, warns, err := ScanDeltaSegments(dir, ncols)
	if err != nil {
		t.Fatal("a torn delta segment must not fail the scan:", err)
	}
	if len(segs) != 1 || segs[0].ID != 0 || segs[0].Rows != 3 {
		t.Fatalf("delta segments %+v, want just segment 0 with 3 rows", segs)
	}
	if len(warns) != 1 {
		t.Fatalf("warnings %v, want exactly one", warns)
	}
	if _, err := os.Stat(torn + QuarantineSuffix); err != nil {
		t.Fatal("torn file must be renamed aside:", err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn file must no longer carry the segment name")
	}

	// Quarantined ids stay burned so a new segment never collides.
	next, err := NextDeltaSegID(dir)
	if err != nil {
		t.Fatal(err)
	}
	if next != 2 {
		t.Fatalf("next id %d, want 2", next)
	}

	// Scanning again is stable: the quarantined file is ignored.
	segs, warns, err = ScanDeltaSegments(dir, ncols)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || len(warns) != 0 {
		t.Fatalf("second scan: delta %+v warnings %v", segs, warns)
	}
}

// A delta segment with the right magic but the wrong column count is
// corrupt for this schema and is quarantined like a torn one.
func TestScanQuarantinesWrongWidthSegment(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(50, 2) // 2-column schema
	one := workload.ErrorLogInt(workload.ErrorLogConfig{Rows: 10, NumQueries: 1, Seed: 1})
	if one.Table.Schema.NumCols() == spec.Table.Schema.NumCols() {
		t.Fatal("fixture schemas must differ in width")
	}
	if _, err := WriteSegment(filepath.Join(dir, DeltaSegName(0)), one.Table, nil); err != nil {
		t.Fatal(err)
	}
	segs, warns, err := ScanDeltaSegments(dir, spec.Table.Schema.NumCols())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 || len(warns) != 1 {
		t.Fatalf("delta %+v warnings %v, want quarantine", segs, warns)
	}
	if _, err := os.Stat(filepath.Join(dir, DeltaSegName(0)+QuarantineSuffix)); err != nil {
		t.Fatal("wrong-width file must be renamed aside:", err)
	}
}

// TestOpenRefusesDeltaSegment: a block directory holding a delta segment
// (complete or torn) fails to open with an error naming the file, and
// Open renames nothing, so no acknowledged row disappears quietly. A
// quarantined file is not a segment and does not stop the open.
func TestOpenRefusesDeltaSegment(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(100, 4)
	st, err := Write(dir, spec.Table, make([]int, spec.Table.N), 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	listing := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	seg := filepath.Join(dir, DeltaSegName(3))
	if _, err := WriteSegment(seg, spec.Table, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	for _, torn := range []bool{false, true} {
		if torn {
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, info.Size()-3); err != nil {
				t.Fatal(err)
			}
		}
		before := listing()
		re, err := Open(dir)
		if err == nil {
			re.Close()
			t.Fatalf("torn=%v: Open succeeded over a directory holding %s", torn, DeltaSegName(3))
		}
		if !strings.Contains(err.Error(), DeltaSegName(3)) {
			t.Errorf("torn=%v: error %q does not name the segment", torn, err)
		}
		if after := listing(); !slices.Equal(before, after) {
			t.Errorf("torn=%v: Open changed the directory: %v -> %v", torn, before, after)
		}
	}

	if err := os.Rename(seg, seg+QuarantineSuffix); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal("a quarantined file must not stop Open:", err)
	}
	re.Close()
}
