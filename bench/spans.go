package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span names. The nesting is fixed: each span's parent is the layer that
// calls into it in the real request path.
//
//	client.query            HTTP round trip as the client sees it
//	└ serve.execute         in-process Server parse + execute
//	  ├ sqlparse.parse      Parser.Parse / ParseSelect / ParseRowSelect
//	  └ exec.run            exec.Run*Delta on a second store handle
//	    ├ cost.prune        Layout.BlocksFor + SMA check
//	    └ blockstore.read   Store.ReadColVecsArena over the candidates
//
// and on the cluster workload
//
//	client.query
//	└ cluster.scatter       in-process FrontDoor.Query
//	  └ cluster.shard       slowest direct shard /query round trip
const (
	spanClientQuery  = "client.query"
	spanServeExecute = "serve.execute"
	spanParse        = "sqlparse.parse"
	spanExecRun      = "exec.run"
	spanPrune        = "cost.prune"
	spanRead         = "blockstore.read"
	spanScatter      = "cluster.scatter"
	spanShard        = "cluster.shard"
	spanClientIngest = "client.ingest"
	spanDeltaInsert  = "delta.insert"
	spanCompact      = "serve.compact"
	spanRelayout     = "serve.relayout"
	spanReopen       = "serve.reopen"
)

// span is one recorded interval. Spans of one statement share Op; Parent
// is the ID of the causing span (0 = root). Times are nanoseconds since
// the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; each client goroutine appends to its
// own lane so recording takes no lock, and lanes are merged at the end.
type recorder struct {
	origin time.Time
	lanes  [][]span
}

func newRecorder(lanes int) *recorder {
	return &recorder{origin: time.Now(), lanes: make([][]span, lanes)}
}

// add records a finished span on a lane and returns its ID. IDs are
// unique across lanes (lane index in the low bits).
func (r *recorder) add(lane, parent, op int, name, class string, start, end time.Time) int {
	id := (len(r.lanes[lane])+1)*len(r.lanes) + lane
	r.lanes[lane] = append(r.lanes[lane], span{
		ID: id, Parent: parent, Op: op, Name: name, Class: class,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
	})
	return id
}

func (r *recorder) all() []span {
	var out []span
	for _, l := range r.lanes {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSelf is the per-layer outcome of a traced phase: for every span
// name, the span durations and self times over all statements, in
// statement order.
type layerSelf struct {
	dur  map[string][]float64 // microseconds
	self map[string][]float64 // microseconds
}

// selfTimes computes every span's self time: its duration minus its
// direct children's durations (see selfTime).
func selfTimes(spans []span) layerSelf {
	children := make(map[int][]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.dur())
		}
	}
	out := layerSelf{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		out.dur[s.Name] = append(out.dur[s.Name], us(s.dur()))
		out.self[s.Name] = append(out.self[s.Name], us(selfTime(s.dur(), children[s.ID]...)))
	}
	return out
}

// share is a layer's summed self time over the summed duration of the
// root span — the layer's part of what the client waited for.
func (l layerSelf) share(name, root string) float64 {
	return ratio(sum(l.self[name]), sum(l.dur[root]))
}
