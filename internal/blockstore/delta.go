// Delta segments are the on-disk half of the streaming ingest path: small
// append-only v1 segment files (delta_NNNNNN.qdb) in a serving root's
// delta directory (internal/delta), holding rows inserted since the last
// compaction. They carry no pruning metadata and are scanned in full by
// every query (delta ∪ base); compaction routes their rows through the
// qd-tree into a fresh generation and deletes them. A block directory
// never holds them: Open refuses one that does.
//
// Because a crash can interrupt a segment write, ScanDeltaSegments
// validates every delta file against its self-describing header and
// quarantines torn tails (renamed to *.quarantined) instead of failing —
// losing an unacknowledged partial append is acceptable; refusing to
// serve the intact base and remaining delta is not.
package blockstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// DeltaSegPrefix / DeltaSegSuffix name the delta segment files of a
// directory: delta_NNNNNN.qdb.
const (
	DeltaSegPrefix = "delta_"
	DeltaSegSuffix = ".qdb"
	// QuarantineSuffix is appended to a torn or corrupt delta segment's
	// name when ScanDeltaSegments sets it aside.
	QuarantineSuffix = ".quarantined"
)

// DeltaSegName returns the file name of delta segment id.
func DeltaSegName(id int) string {
	return fmt.Sprintf("%s%06d%s", DeltaSegPrefix, id, DeltaSegSuffix)
}

// ParseDeltaSegName extracts the segment id from a delta segment file
// name (quarantined names included), or ok=false for other files.
func ParseDeltaSegName(name string) (id int, ok bool) {
	name = strings.TrimSuffix(name, QuarantineSuffix)
	if !strings.HasPrefix(name, DeltaSegPrefix) || !strings.HasSuffix(name, DeltaSegSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, DeltaSegPrefix), DeltaSegSuffix)
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// DeltaSegment describes one validated delta segment file.
type DeltaSegment struct {
	ID   int
	Path string
	Rows int
}

// segmentFileSize is the exact byte size of a v1 segment holding
// nrows × ncols values: magic + shape header + per-column min/max +
// fixed-width payload.
func segmentFileSize(ncols, nrows int) int64 {
	return int64(12) + int64(16*ncols) + int64(8)*int64(ncols)*int64(nrows)
}

// checkDeltaSegment validates one delta segment file against its header:
// magic, column count, and the exact file size the header implies. A nil
// error means the file is a complete, readable segment.
func checkDeltaSegment(path string, ncols int) (rows int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	hdr := make([]byte, 12)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, fmt.Errorf("short header (%d bytes)", info.Size())
	}
	if string(hdr[:4]) != magicV1 {
		return 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	fcols := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if fcols != ncols {
		return 0, fmt.Errorf("%d columns, schema has %d", fcols, ncols)
	}
	rows = int(binary.LittleEndian.Uint32(hdr[8:12]))
	if want := segmentFileSize(ncols, rows); info.Size() != want {
		return 0, fmt.Errorf("torn tail: %d bytes on disk, header implies %d", info.Size(), want)
	}
	return rows, nil
}

// ScanDeltaSegments finds and validates the delta segment files of dir.
// Complete segments are returned sorted by id; torn or corrupt files are
// renamed aside with QuarantineSuffix and reported as warnings rather
// than errors, so a crash mid-append never blocks reopening the store.
func ScanDeltaSegments(dir string, ncols int) (segs []DeltaSegment, warnings []string, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, DeltaSegPrefix+"*"+DeltaSegSuffix))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		id, ok := ParseDeltaSegName(filepath.Base(path))
		if !ok {
			continue
		}
		rows, verr := checkDeltaSegment(path, ncols)
		if verr != nil {
			q := path + QuarantineSuffix
			if rerr := os.Rename(path, q); rerr != nil {
				return nil, nil, fmt.Errorf("blockstore: quarantine delta segment %s: %w", path, rerr)
			}
			warnings = append(warnings, fmt.Sprintf("delta segment %s quarantined: %v", filepath.Base(path), verr))
			continue
		}
		segs = append(segs, DeltaSegment{ID: id, Path: path, Rows: rows})
	}
	return segs, warnings, nil
}

// NextDeltaSegID returns the first segment id not used by any delta
// segment file in dir — quarantined files included, so a recovered store
// never reuses the id of a file set aside for inspection.
func NextDeltaSegID(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, DeltaSegPrefix+"*"))
	if err != nil {
		return 0, err
	}
	next := 0
	for _, path := range paths {
		if id, ok := ParseDeltaSegName(filepath.Base(path)); ok && id >= next {
			next = id + 1
		}
	}
	return next, nil
}
