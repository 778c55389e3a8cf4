package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/table"
	"repro/internal/workload"
	"repro/qd"
)

// Workload names (fixed: every later issue refers to them).
const (
	wlPoint   = "point"
	wlScan    = "scan"
	wlIngest  = "ingest"
	wlCluster = "cluster"
)

var workloadNames = []string{wlPoint, wlScan, wlIngest, wlCluster}

// clusterShards is the width of the cluster workload.
const clusterShards = 2

// clients is the number of closed-loop client connections of point, scan
// and cluster (the host has two cores). The ingest workload has one
// writer and one reader instead.
const clients = 2

// config is one run's scale and shape, recorded beside every result so a
// number is never read without it.
type config struct {
	Rows int   `json:"rows"`
	Seed int64 `json:"seed"`
	// Filters is the number of seeded point filters: pointFilters in every
	// run of the command; only the tests' smoke scale sets fewer.
	Filters int     `json:"point_filters"`
	Seconds float64 `json:"seconds"`
	Setups  int     `json:"setups"`
	Repeat  int     `json:"repeat"`
	OutDir  string  `json:"-"`
}

// minBlock is b, the planner's minimum rows per block: rows/2000, the
// repo's habitual setting (cmd/qdbench), floored at 16.
func (c config) minBlock() int { return max(16, c.Rows/2000) }

// setupTimes are the stages of one set-up, in seconds; Total is the
// end-to-end metric setup_s.
type setupTimes struct {
	Gen, Plan, Write, Open, ClusterInit, Total float64
	WriteBytes                                 int64
}

// env is one workload's running system: generated data, planned layout,
// the store on disk and the real handlers on loopback listeners.
type env struct {
	name   string
	cfg    config
	spec   *workload.Spec // generated rows and filters; dropped once the truth is computed
	schema *table.Schema
	plan   *qd.Plan
	dir    string
	opt    qd.ServeOptions

	servers []*qd.Server       // standalone: one; cluster: one per shard
	https   []*httptest.Server // same order as servers
	fd      *qd.FrontDoor
	fdHTTP  *httptest.Server
	url     string // the endpoint clients talk to
	times   setupTimes
	prep    *prepared // statement list and truth, attached by prepare
}

func toCuts(ps []workload.Pred2Cut) []qd.Cut {
	out := make([]qd.Cut, len(ps))
	for i, p := range ps {
		if p.IsAdv {
			out[i] = qd.AdvancedCut(p.Adv)
		} else {
			out[i] = qd.UnaryCut(p.Pred)
		}
	}
	return out
}

// generate builds the workload's dataset and seeded filters.
func generate(name string, cfg config) *workload.Spec {
	if name == wlScan {
		return workload.TPCH(workload.TPCHConfig{Rows: cfg.Rows, Seed: cfg.Seed})
	}
	return workload.ErrorLogInt(workload.ErrorLogConfig{Rows: cfg.Rows, NumQueries: cfg.Filters, Seed: cfg.Seed})
}

// setUp generates the data, plans it with greedy, writes the store and
// opens the server(s); the whole of it is timed as setup_s. All server
// timers stay off (CheckInterval and CompactInterval 0) and execution
// parallelism is the server default.
func setUp(name string, cfg config) (*env, error) {
	e := &env{name: name, cfg: cfg}
	t0 := time.Now()
	e.spec = generate(name, cfg)
	e.schema = e.spec.Table.Schema
	t1 := time.Now()
	ds := qd.NewDataset(nil, e.spec.Table).WithQueries(e.spec.Queries, e.spec.ACs)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: cfg.minBlock(), Cuts: toCuts(e.spec.Cuts)})
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	e.plan = plan
	t2 := time.Now()
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(cfg.OutDir, "store-"+name+"-"); err != nil {
		return nil, err
	}
	e.opt = qd.ServeOptions{ACs: plan.ACs, Plan: qd.PlanOptions{MinBlockSize: cfg.minBlock()}}
	if name == wlCluster {
		err = e.openCluster()
	} else {
		err = e.openStandalone(t2)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.times.Gen = t1.Sub(t0).Seconds()
	e.times.Plan = t2.Sub(t1).Seconds()
	e.times.Total = time.Since(t0).Seconds()
	e.times.WriteBytes = dirBytes(e.dir)
	return e, nil
}

func (e *env) openStandalone(t2 time.Time) error {
	if err := qd.InitServing(e.dir, e.spec.Table, e.plan); err != nil {
		return fmt.Errorf("write store: %w", err)
	}
	t3 := time.Now()
	e.times.Write = t3.Sub(t2).Seconds()
	s, err := qd.NewServer(e.dir, e.opt)
	if err != nil {
		return fmt.Errorf("open server: %w", err)
	}
	e.servers = []*qd.Server{s}
	e.https = []*httptest.Server{httptest.NewServer(qd.ServerHandler(s))}
	e.url = e.https[0].URL
	e.times.Open = time.Since(t3).Seconds()
	return nil
}

func (e *env) openCluster() error {
	t2 := time.Now()
	m, err := qd.InitCluster(e.dir, e.spec.Table, e.plan, clusterShards)
	if err != nil {
		return fmt.Errorf("init cluster: %w", err)
	}
	t3 := time.Now()
	e.times.ClusterInit = t3.Sub(t2).Seconds()
	var addrs []string
	for _, asn := range m.Shards {
		opt := e.opt
		opt.ShardLabel = fmt.Sprintf("shard_%03d", asn.ID)
		s, err := qd.NewServer(qd.ClusterShardRoot(e.dir, asn.ID), opt)
		if err != nil {
			return fmt.Errorf("open shard %d: %w", asn.ID, err)
		}
		hs := httptest.NewServer(qd.ShardServerHandler(s))
		e.servers = append(e.servers, s)
		e.https = append(e.https, hs)
		addrs = append(addrs, hs.URL)
	}
	if e.fd, err = qd.NewFrontDoor(addrs, qd.FrontDoorOptions{ACs: e.plan.ACs}); err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	e.fdHTTP = httptest.NewServer(qd.FrontDoorHandler(e.fd))
	e.url = e.fdHTTP.URL
	e.times.Open = time.Since(t3).Seconds()
	return nil
}

// reopen closes the standalone server and opens the root again, the
// way a restarted process would; it returns how long that took.
func (e *env) reopen() (time.Duration, error) {
	start := time.Now()
	e.https[0].Close()
	if err := e.servers[0].Close(); err != nil {
		return 0, fmt.Errorf("close server: %w", err)
	}
	s, err := qd.NewServer(e.dir, e.opt)
	if err != nil {
		return 0, fmt.Errorf("reopen server: %w", err)
	}
	e.servers[0] = s
	e.https[0] = httptest.NewServer(qd.ServerHandler(s))
	e.url = e.https[0].URL
	return time.Since(start), nil
}

// close stops every listener and server and removes the store.
func (e *env) close() {
	if e.fdHTTP != nil {
		e.fdHTTP.Close()
	}
	for _, hs := range e.https {
		hs.Close()
	}
	for _, s := range e.servers {
		s.Close() // the store is about to be removed; nothing to recover
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// storeRows is the number of rows the servers hold.
func (e *env) storeRows() int {
	n := 0
	for _, s := range e.servers {
		n += s.Rows()
	}
	return n
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a file removed mid-walk (generation GC) is not counted
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// newClient returns an HTTP client that holds at most one connection:
// one client goroutine, one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}
