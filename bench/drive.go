package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// opRec is one completed (or failed) POST /query as the client saw it.
type opRec struct {
	seq   int // global issue order; seq % len(list) is the statement
	class string
	lat   time.Duration
	end   time.Duration // completion, since the phase started
	ok    bool          // transport ok, status 200 and the reference answer

	blocksScanned, blocksTotal         int
	rowsScanned, rowsMatched, bytesRet int64
	respBytes                          int
	shardsContacted, shardsPruned      int
	partial                            bool
}

// ingestClock is what a reader needs to bound the server's state: how
// many batches were acknowledged and how many were sent. Nil on the
// static workloads.
//
// gate keeps reads and compactions apart: the reader holds it shared
// around every query, the writer exclusively around POST /compact. At
// the commit this benchmark was defined on, a compaction re-freezes the
// live qd-tree's leaf descriptions in place (serve.compactionLayout →
// cost.FromTree → Tree.Freeze) while queries prune with them, and the
// process dies with "concurrent map read and map write" within seconds.
// A workload must not fail, so reads wait out each compaction. The wait
// is not part of a read's latency but does lower the reader's qps; waited
// adds it up (client.compact_wait_s) so that the qps can be read against
// it. No read overlaps a compaction, so read latency during one
// (ISSUE 11's serve.reader_p95_in_compact_ms) is not measured until the
// server is fixed and the gate lifted.
type ingestClock struct {
	acked  atomic.Int64
	sent   atomic.Int64
	gate   sync.RWMutex
	waited atomic.Int64 // ns the reader spent blocked on gate
}

// loop is one closed-loop phase: clients goroutines, one connection
// each, every one sending its next statement only after the previous
// reply. Statements are handed out in list order from a shared counter,
// so the n-th statement issued is list[n % len(list)] whichever client
// sends it, and counters summed over whole passes repeat exactly.
type loop struct {
	url     string
	list    []*stmt
	bodies  [][]byte
	clients int
	truth   verifier
	clock   *ingestClock // nil: static workload
	tracer  *tracer      // nil: spans off

	// The phase ends at the first of: maxOps statements issued (0 = no
	// limit), the deadline (zero = none), stop closed (nil = never).
	maxOps   int
	deadline time.Time
	stop     <-chan struct{}
}

// phaseResult is everything a phase observed.
type phaseResult struct {
	ops     []opRec
	start   time.Time
	elapsed time.Duration // start → last completion
}

func queryBodies(list []*stmt) [][]byte {
	out := make([][]byte, len(list))
	for i, st := range list {
		out[i], _ = json.Marshal(map[string]string{"sql": st.SQL}) // a string map always marshals
	}
	return out
}

// post sends one JSON body and returns the whole reply.
func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (l *loop) stopped() bool {
	if l.stop == nil {
		return false
	}
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

func (l *loop) run() phaseResult {
	var next atomic.Int64
	lanes := make([][]opRec, l.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				if l.stopped() || (!l.deadline.IsZero() && time.Now().After(l.deadline)) {
					return
				}
				seq := int(next.Add(1) - 1)
				if l.maxOps > 0 && seq >= l.maxOps {
					return
				}
				i := seq % len(l.list)
				st := l.list[i]
				rec := opRec{seq: seq, class: st.Class}
				lo := 0
				if l.clock != nil {
					w0 := time.Now()
					l.clock.gate.RLock()
					l.clock.waited.Add(int64(time.Since(w0)))
					lo = int(l.clock.acked.Load())
				}
				t0 := time.Now()
				data, status, err := post(client, l.url+"/query", l.bodies[i])
				t1 := time.Now()
				hi := 0
				if l.clock != nil {
					hi = int(l.clock.sent.Load())
					l.clock.gate.RUnlock()
				}
				rec.lat, rec.end, rec.respBytes = t1.Sub(t0), t1.Sub(start), len(data)
				var resp queryResponse
				if err == nil && status == http.StatusOK && json.Unmarshal(data, &resp) == nil {
					rec.ok = l.truth.verify(st, &resp, lo, hi)
					rec.blocksScanned, rec.blocksTotal = resp.BlocksScanned, resp.BlocksTotal
					rec.rowsScanned, rec.rowsMatched, rec.bytesRet = resp.RowsScanned, resp.RowsMatched, resp.BytesRead
					rec.shardsContacted, rec.shardsPruned, rec.partial = resp.ShardsContacted, resp.ShardsPruned, resp.Partial
				}
				lanes[lane] = append(lanes[lane], rec)
				if l.tracer != nil {
					l.tracer.replay(lane, seq, st, l.bodies[i], t0, t1)
				}
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{start: start}
	for _, lane := range lanes {
		res.ops = append(res.ops, lane...)
		if n := len(lane); n > 0 && lane[n-1].end > res.elapsed {
			res.elapsed = lane[n-1].end
		}
	}
	return res
}

// latencies returns the client-side latencies in milliseconds of the ops
// keep selects.
func latencies(ops []opRec, keep func(opRec) bool) []float64 {
	var out []float64
	for _, op := range ops {
		if keep(op) {
			out = append(out, ms(op.lat))
		}
	}
	return out
}

func ofClass(class string) func(opRec) bool {
	return func(op opRec) bool { return op.class == class }
}

func anyOp(opRec) bool { return true }

// failed counts ops that hit a transport error, a non-200 status or a
// wrong answer.
func (r phaseResult) failed() int {
	n := 0
	for _, op := range r.ops {
		if !op.ok {
			n++
		}
	}
	return n
}

// wholePasses returns the ops of the complete passes over a list of
// listLen statements (all ops when not even one pass completed). Their
// counters are a fixed multiset, so sums over them repeat exactly.
func (r phaseResult) wholePasses(listLen int) []opRec {
	full := len(r.ops) / listLen * listLen
	if full == 0 {
		return r.ops
	}
	out := make([]opRec, 0, full)
	for _, op := range r.ops {
		if op.seq < full {
			out = append(out, op)
		}
	}
	return out
}

// checkStatus turns a non-200 reply into an error naming the call.
func checkStatus(what string, status int, body []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, status, bytes.TrimSpace(body))
	}
	return nil
}
