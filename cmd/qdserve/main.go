// Command qdserve runs the online serving subsystem as an HTTP/JSON
// service: queries execute against the live layout generation, every
// execution lands in a sliding workload log, and a background drift
// monitor replans the logged window — when the candidate layout beats the
// live one by the configured margin, the store is rewritten into a new
// generation and hot-swapped with zero failed queries.
//
// Three roles cover standalone and distributed serving:
//
//	qdserve -demo                             # standalone: bootstrap a synthetic store and serve it
//	qdserve -store /data/qd                   # standalone: serve an existing generation root
//	qdserve -role shard -demo -shards 3 -shard-index 1 -store /data/cluster
//	                                          # store node: bootstrap + serve shard 1 of a 3-shard demo cluster
//	qdserve -role shard -store /data/cluster/shard_001
//	                                          # store node: serve an existing shard root
//	qdserve -role frontdoor -peers 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	                                          # front door: scatter/gather over the shard peers
//
// Endpoints (standalone and shard):
//
//	POST /query    {"sql": "severity >= 8"}   one filter query; returns scan stats
//	POST /query    {"sql": "SELECT service, COUNT(*) FROM logs GROUP BY service"}
//	                                          aggregation; returns typed rows + stats
//	POST /ingest   {"columns": [...], "rows": [[...], ...]}
//	                                          stream rows into the delta; visible immediately
//	POST /compact                             force a delta-compaction cycle
//	GET  /stats                               serving counters + last drift check
//	GET  /metrics                             Prometheus text exposition
//	GET  /debug/traces                        recent + slow query traces
//	POST /relayout                            force a replan + swap cycle
//	GET  /healthz                             liveness
//
// A shard additionally serves GET /cluster/summary (its pruning envelope)
// and POST /cluster/select (partial aggregation for the front door's
// gather). A front door serves POST /query, POST /ingest, GET /stats,
// GET /metrics, GET /debug/traces, POST /refresh, and GET /healthz —
// queries are parsed once, shards whose envelope cannot match are pruned,
// and the rest are scattered in parallel; answers are bit-identical to a
// single-node run unless the response carries "partial": true.
//
// Every role's POST /query honors {"trace": true} (inline per-stage
// spans; the front door also gathers each shard's spans), -slow-ms sets
// the slow-query threshold, and -pprof mounts net/http/pprof under
// /debug/pprof/.
//
// A standalone or shard server prunes blocks through the layout's tree
// and reads only the columns a statement references, through block
// handles it opens once and keeps (up to half the process's open-file
// limit). A /query reply carries the statement's scan counts and
// wall_time_ns.
//
// A generation root is created from any planned layout with
// qd.InitServing, a sharded cluster with qd.InitCluster (or the -demo
// shard role, which bootstraps its own slice deterministically).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/qd"
)

type config struct {
	addr       string
	addrFile   string
	role       string
	store      string
	demo       bool
	rows       int
	shards     int
	shardIndex int
	peers      string
	strategy   string
	minBlock   int
	window     int
	minWindow  int
	threshold  float64
	interval   time.Duration
	keep       int
	parallel   int
	memRows    int
	compRows   int
	compEvery  time.Duration
	fdTimeout  time.Duration
	fdRetries  int
	fdWait     time.Duration
	slowMS     int
	pprof      bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the bound address (host:port) to this file after listen — for orchestrating port-0 clusters")
	flag.StringVar(&cfg.role, "role", "standalone", "process role: standalone | shard | frontdoor")
	flag.StringVar(&cfg.store, "store", "", "generation root to serve; for -role shard -demo, the cluster directory")
	flag.BoolVar(&cfg.demo, "demo", false, "bootstrap a synthetic demo store under -store (or a temp dir) before serving")
	flag.IntVar(&cfg.rows, "rows", 200_000, "demo table rows")
	flag.IntVar(&cfg.shards, "shards", 1, "demo cluster size (role=shard with -demo)")
	flag.IntVar(&cfg.shardIndex, "shard-index", 0, "which shard this process serves (role=shard with -demo)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated shard addresses (role=frontdoor)")
	flag.StringVar(&cfg.strategy, "strategy", "greedy", "replan strategy (qd planner registry name)")
	flag.IntVar(&cfg.minBlock, "min-block", 0, "replan min rows per block (0 = rows/64)")
	flag.IntVar(&cfg.window, "window", 0, "drift window: logged queries replanned per check (0 = log capacity)")
	flag.IntVar(&cfg.minWindow, "min-window", 16, "minimum logged queries before the monitor replans")
	flag.Float64Var(&cfg.threshold, "threshold", 0.10, "minimum relative cost improvement before a swap (0 = default 0.10, negative = any improvement)")
	flag.DurationVar(&cfg.interval, "interval", 30*time.Second, "background drift-check period (0 disables the monitor)")
	flag.IntVar(&cfg.keep, "keep", 0, "retired generations kept on disk after a swap")
	flag.IntVar(&cfg.parallel, "parallelism", 0, "scan worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.memRows, "memtable-rows", 0, "ingest memtable rows before sealing to a delta segment (0 = default 4096)")
	flag.IntVar(&cfg.compRows, "compact-rows", 0, "uncompacted delta rows before a background compaction (0 = default 65536)")
	flag.DurationVar(&cfg.compEvery, "compact-interval", 10*time.Second, "background compaction check period (0 disables; POST /compact still works)")
	flag.DurationVar(&cfg.fdTimeout, "shard-timeout", 10*time.Second, "front door: per-shard request timeout")
	flag.IntVar(&cfg.fdRetries, "shard-retries", 1, "front door: extra attempts per failed shard call")
	flag.DurationVar(&cfg.fdWait, "peer-wait", 15*time.Second, "front door: how long to wait for peers at startup")
	flag.IntVar(&cfg.slowMS, "slow-ms", 250, "slow-query threshold in milliseconds for Stats.SlowQueries, the slow-trace ring, and qd_slow_queries_total (0 disables)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "qdserve: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	switch cfg.role {
	case "standalone", "shard":
		return runServer(cfg)
	case "frontdoor":
		return runFrontDoor(cfg)
	default:
		return fmt.Errorf("unknown role %q (standalone | shard | frontdoor)", cfg.role)
	}
}

// runServer serves one generation root — the whole table (standalone) or
// one shard's slice (role=shard, which adds the /cluster endpoints).
func runServer(cfg config) error {
	store := cfg.store
	label := ""
	if cfg.role == "shard" {
		label = fmt.Sprintf("shard_%03d", cfg.shardIndex)
	}
	if cfg.demo {
		if store == "" {
			dir, err := os.MkdirTemp("", "qdserve-demo-")
			if err != nil {
				return err
			}
			store = dir
		}
		if cfg.role == "shard" {
			// Every shard process derives the same table and plan from the
			// same seed and materializes only its own slice — no
			// coordinator process needed for the demo cluster.
			if cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shards {
				return fmt.Errorf("-shard-index %d out of range for -shards %d", cfg.shardIndex, cfg.shards)
			}
			root := qd.ClusterShardRoot(store, cfg.shardIndex)
			if _, err := os.Stat(filepath.Join(root, "CURRENT")); err == nil {
				log.Printf("shard root %s already initialized; serving it", root)
			} else {
				tbl, plan, err := demoPlan(cfg.rows)
				if err != nil {
					return fmt.Errorf("demo bootstrap: %w", err)
				}
				if err := qd.InitClusterShard(store, tbl, plan, cfg.shards, cfg.shardIndex); err != nil {
					return fmt.Errorf("demo bootstrap: %w", err)
				}
				log.Printf("demo shard %d/%d bootstrapped at %s", cfg.shardIndex, cfg.shards, root)
			}
			store = root
		} else if _, err := os.Stat(filepath.Join(store, "CURRENT")); err == nil {
			// Idempotent: restarting with the same -demo -store serves the
			// existing generations instead of failing on generation 1.
			log.Printf("store %s already initialized; serving it", store)
		} else {
			if err := bootstrapDemo(store, cfg.rows); err != nil {
				return fmt.Errorf("demo bootstrap: %w", err)
			}
			log.Printf("demo store bootstrapped at %s (%d rows)", store, cfg.rows)
		}
	} else if cfg.role == "shard" && store != "" {
		// Serving an existing shard root directly (e.g. one written by
		// qd.InitCluster): -store points at the root itself.
		if _, err := os.Stat(filepath.Join(store, "CURRENT")); err != nil {
			if alt := qd.ClusterShardRoot(store, cfg.shardIndex); fileExists(filepath.Join(alt, "CURRENT")) {
				store = alt
			}
		}
	}
	if store == "" {
		return fmt.Errorf("need -store (or -demo)")
	}

	srv, err := qd.NewServer(store, qd.ServeOptions{
		Strategy:        cfg.strategy,
		Plan:            qd.PlanOptions{MinBlockSize: cfg.minBlock},
		Exec:            qd.ExecOptions{Parallelism: cfg.parallel, ShareReads: true},
		WindowSize:      cfg.window,
		MinWindow:       cfg.minWindow,
		MinImprovement:  cfg.threshold,
		CheckInterval:   cfg.interval,
		KeepGenerations: cfg.keep,
		MemtableRows:    cfg.memRows,
		CompactRows:     cfg.compRows,
		CompactInterval: cfg.compEvery,
		ShardLabel:      label,
		SlowQuery:       slowThreshold(cfg.slowMS),
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	handler := qd.ServerHandler(srv)
	if cfg.role == "shard" {
		handler = qd.ShardServerHandler(srv)
	}
	what := fmt.Sprintf("serving %s (generation %d, %d rows)", store, srv.Generation(), srv.Rows())
	if label != "" {
		what = label + ": " + what
	}
	return serveHTTP(cfg, handler, what)
}

// runFrontDoor starts the stateless scatter/gather tier over the -peers
// shard addresses, waiting up to -peer-wait for them to come up.
func runFrontDoor(cfg config) error {
	var peers []string
	for _, p := range strings.Split(cfg.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return fmt.Errorf("role frontdoor needs -peers host:port,host:port,...")
	}
	retries := cfg.fdRetries
	if retries <= 0 {
		retries = -1 // flag 0 means no retries; the option's 0 means default
	}
	opt := qd.FrontDoorOptions{Timeout: cfg.fdTimeout, Retries: retries, SlowQuery: slowThreshold(cfg.slowMS)}
	var fd *qd.FrontDoor
	var err error
	deadline := time.Now().Add(cfg.fdWait)
	for {
		fd, err = qd.NewFrontDoor(peers, opt)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peers not ready after %v: %w", cfg.fdWait, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	rows := 0
	for _, sum := range fd.Summaries() {
		rows += sum.Rows + sum.DeltaRows
	}
	what := fmt.Sprintf("front door over %d shards (%d rows)", fd.NumShards(), rows)
	return serveHTTP(cfg, qd.FrontDoorHandler(fd), what)
}

// slowThreshold maps the -slow-ms flag to the option semantics: 0 on
// the flag disables slow-query accounting (internally negative), any
// positive value is the threshold.
func slowThreshold(ms int) time.Duration {
	if ms <= 0 {
		return -1
	}
	return time.Duration(ms) * time.Millisecond
}

// withPprof mounts net/http/pprof in front of the role handler. The
// pprof mux entries are registered on http.DefaultServeMux by the
// package's init; routing /debug/pprof/ there keeps the role handler's
// own /debug/traces path intact.
func withPprof(handler http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", handler)
	return mux
}

// serveHTTP binds the listener, optionally publishes the bound address to
// -addr-file, and serves until SIGINT/SIGTERM drains it.
func serveHTTP(cfg config, handler http.Handler, what string) error {
	if cfg.pprof {
		handler = withPprof(handler)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.addrFile != "" {
		tmp := cfg.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, cfg.addrFile); err != nil {
			return err
		}
	}
	log.Printf("%s on http://%s", what, ln.Addr())
	log.Printf(`try: curl -s -X POST http://%s/query -d '{"sql": "..."}'`, ln.Addr())

	httpSrv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v, draining", s)
		// Drain in-flight requests (zero failed queries extends to
		// shutdown); fall back to a hard close after a grace period.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			httpSrv.Close()
		}
		return nil
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// demoPlan synthesizes the ops-log demo table and plans the initial
// layout for a deliberately narrow workload (recent high-severity auth
// traffic). Deterministic: every call with the same rows yields the same
// table and plan, which is what lets independent shard processes
// bootstrap consistent slices.
func demoPlan(rows int) (*qd.Table, *qd.Plan, error) {
	schema := qd.MustSchema([]qd.Column{
		{Name: "event_date", Kind: qd.Numeric, Min: 0, Max: 364},
		{Name: "severity", Kind: qd.Numeric, Min: 0, Max: 9},
		{Name: "service", Kind: qd.Categorical, Dom: 5,
			Dict: []string{"auth", "billing", "frontend", "search", "storage"}},
	})
	rng := rand.New(rand.NewSource(1))
	tbl := qd.NewTable(schema, rows)
	for i := 0; i < rows; i++ {
		service := int64(rng.Intn(5))
		sev := int64(rng.Intn(10))
		if service == 0 {
			sev = int64(5 + rng.Intn(5))
		}
		tbl.AppendRow([]int64{int64(rng.Intn(365)), sev, service})
	}
	ds, err := qd.NewDataset(schema, tbl).WithWorkload(
		"service = 'auth' AND severity >= 8",
		"severity >= 9 AND event_date >= 300",
		"service = 'auth' AND event_date >= 340",
	)
	if err != nil {
		return nil, nil, err
	}
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: max(1, rows/64)})
	if err != nil {
		return nil, nil, err
	}
	return tbl, plan, nil
}

// bootstrapDemo materializes the demo table as a standalone generation
// root.
func bootstrapDemo(root string, rows int) error {
	tbl, plan, err := demoPlan(rows)
	if err != nil {
		return err
	}
	return qd.InitServing(root, tbl, plan)
}
