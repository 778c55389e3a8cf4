// Package serve is the online serving subsystem: it wraps a materialized
// qd-tree layout behind a concurrency-safe, hot-swappable handle, records
// every executed query into a sliding workload log, and runs a background
// drift monitor that replans the logged window and — when the candidate
// layout beats the live one by a configurable margin — rewrites the block
// store into a new generation and swaps it in with zero failed queries.
//
// The paper learns a layout from a fixed workload (Sec. 3–5); this package
// closes the production loop the paper leaves offline:
//
//	queries → workload log → drift check → replan → new generation → swap
//
// Generations are immutable directories under one root (see
// blockstore.WriteGeneration); the swap flips an in-memory handle and the
// on-disk CURRENT pointer, in-flight queries drain on the old generation,
// and retired generations are garbage-collected.
package serve

import (
	"fmt"
	"sync"

	"repro/internal/expr"
)

// Entry is one logged query execution: the query itself (so the window can
// be replanned) plus the per-query stats the executor surfaced.
type Entry struct {
	Seq        uint64     // monotone sequence number across the log's life
	Name       string     // query name (or SQL text for HTTP queries)
	Query      expr.Query // the executed query
	Generation int        // layout generation that served it
	Blocks     int        // blocks scanned
	Rows       int64      // rows scanned
	Matched    int64      // rows matched
	Bytes      int64      // bytes read
	SkipRate   float64    // fraction of store rows skipped (1 = touched nothing)
}

// Log is the sliding workload log: a fixed-capacity ring buffer of the
// most recent query executions. Safe for concurrent use.
type Log struct {
	mu    sync.Mutex
	buf   []Entry // ring storage
	size  int     // entries currently held (≤ cap(buf))
	total uint64  // entries ever recorded; next seq number
}

// NewLog returns a log keeping the last capacity entries.
func NewLog(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{buf: make([]Entry, capacity)}
}

// Record appends one execution, evicting the oldest entry when full, and
// stamps the entry's sequence number.
func (l *Log) Record(e Entry) {
	l.mu.Lock()
	e.Seq = l.total
	l.buf[l.total%uint64(len(l.buf))] = e
	l.total++
	if l.size < len(l.buf) {
		l.size++
	}
	l.mu.Unlock()
}

// Len is the number of entries currently held.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Total is the number of entries ever recorded.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Window returns a copy of the most recent n entries (all held entries
// when n <= 0 or n exceeds the held count), oldest first.
func (l *Log) Window(n int) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.size {
		n = l.size
	}
	out := make([]Entry, n)
	for i := 0; i < n; i++ {
		// The newest entry is at total-1; walk back n entries.
		idx := (l.total - uint64(n) + uint64(i)) % uint64(len(l.buf))
		out[i] = l.buf[idx]
	}
	return out
}

// Queries projects the most recent n logged entries to their queries,
// oldest first — the window the drift monitor replans.
func (l *Log) Queries(n int) []expr.Query {
	w := l.Window(n)
	out := make([]expr.Query, len(w))
	for i, e := range w {
		out[i] = e.Query
	}
	return out
}

// MeanSkipRate averages the skip rate over the most recent n entries
// (all when n <= 0). Returns 0 with an empty log.
func (l *Log) MeanSkipRate(n int) float64 {
	w := l.Window(n)
	if len(w) == 0 {
		return 0
	}
	var sum float64
	for _, e := range w {
		sum += e.SkipRate
	}
	return sum / float64(len(w))
}

// String summarizes the log for diagnostics.
func (l *Log) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("serve.Log{held=%d cap=%d total=%d}", l.size, len(l.buf), l.total)
}
