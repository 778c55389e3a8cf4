// Package cluster scales the learned layout across store nodes: the
// qd-tree that routes queries to blocks is reused, one level up, as the
// sharding function that routes queries to machines.
//
// The subsystem has three roles:
//
//   - The coordinator (Partition / InitShards) splits a planned layout's
//     leaves into N shard assignments, balancing rows with an LPT greedy,
//     and materializes each shard as its own generation root — so every
//     shard is a full serve.Server with its own delta store, drift
//     monitor, and compactor, re-layouting independently of its peers.
//   - A store node ("shardd") is a serve.Server mounted behind
//     ShardHandler, which adds the cluster endpoints to the standalone
//     HTTP surface: GET /cluster/summary (the shard's pruning envelope +
//     schema) and POST /cluster/select (partial aggregation for
//     bit-identical gathering).
//   - The front door (FrontDoor) is stateless: it parses a query once,
//     prunes shards whose summary envelope cannot match (shard-level SMA
//     pruning, before any block-level pruning on the nodes), scatters the
//     canonical SQL to the surviving shards in parallel with per-shard
//     timeout and bounded retry, and gathers partials with the same
//     order-independent merge arithmetic the in-process worker pool uses
//     (exec.MergeAggPartials / exec.Header.Merge) — so cluster answers
//     are bit-identical to a single-node run over the union of the rows.
//
// Ingest flows through the same assignment: POST /ingest on the front
// door routes each row to the shard whose envelope contains it (falling
// back to the least-loaded shard for out-of-envelope rows) and forwards
// it to that shard's delta store; the shard's own compactor later folds
// it into the learned layout.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/serve"
	"repro/internal/table"
)

// ShardAssignment records one shard's slice of a partitioned layout: the
// source-layout leaf (block) ids it owns and their total row count. Addr
// is filled when the shard is deployed (manifests written by InitShards
// leave it empty; operators or tests fill it before starting a front
// door from the manifest).
type ShardAssignment struct {
	ID     int    `json:"id"`
	Addr   string `json:"addr,omitempty"`
	Leaves []int  `json:"leaves"`
	Rows   int    `json:"rows"`
}

// Manifest is the coordinator's output: the schema plus every shard's
// assignment. It is written as manifest.json beside the shard roots.
type Manifest struct {
	NumShards int               `json:"num_shards"`
	Columns   []table.Column    `json:"columns"`
	Shards    []ShardAssignment `json:"shards"`
}

// ManifestName is the file InitShards writes beside the shard roots.
const ManifestName = "manifest.json"

// ShardRoot returns the generation-root directory of shard id under the
// cluster directory: dir/shard_000 .. dir/shard_NNN.
func ShardRoot(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_%03d", id))
}

// Partition splits layout leaves (given by per-leaf row counts) into
// nshards balanced groups with the LPT greedy: leaves in descending row
// order, each to the currently lightest shard. The result is
// deterministic (ties break toward lower leaf and shard ids) and each
// group lists its leaf ids in ascending order. Empty leaves are spread
// round-robin so every leaf id is owned by exactly one shard.
func Partition(counts []int, nshards int) [][]int {
	if nshards < 1 {
		nshards = 1
	}
	order := make([]int, 0, len(counts))
	for leaf, n := range counts {
		if n > 0 {
			order = append(order, leaf)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	groups := make([][]int, nshards)
	load := make([]int, nshards)
	for _, leaf := range order {
		best := 0
		for s := 1; s < nshards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		groups[best] = append(groups[best], leaf)
		load[best] += counts[leaf]
	}
	next := 0
	for leaf, n := range counts {
		if n == 0 {
			groups[next%nshards] = append(groups[next%nshards], leaf)
			next++
		}
	}
	for s := range groups {
		sort.Ints(groups[s])
	}
	return groups
}

// BuildManifest partitions a layout over nshards and records the
// assignment (addresses unfilled).
func BuildManifest(layout *cost.Layout, nshards int) *Manifest {
	groups := Partition(layout.Counts, nshards)
	m := &Manifest{NumShards: len(groups)}
	for id, leaves := range groups {
		rows := 0
		for _, leaf := range leaves {
			rows += layout.Counts[leaf]
		}
		m.Shards = append(m.Shards, ShardAssignment{ID: id, Leaves: leaves, Rows: rows})
	}
	return m
}

// shardSlice extracts one shard's rows and re-indexed block assignment
// from the full table + layout: owned leaves keep their relative order,
// renumbered 0..len(leaves)-1.
func shardSlice(tbl *table.Table, layout *cost.Layout, leaves []int) (*table.Table, []int, int) {
	local := make(map[int]int, len(leaves))
	for i, leaf := range leaves {
		local[leaf] = i
	}
	var rows []int
	for r, b := range layout.BIDs {
		if _, ok := local[b]; ok {
			rows = append(rows, r)
		}
	}
	sub := tbl.Select(rows)
	bids := make([]int, 0, len(rows))
	for _, r := range rows {
		bids = append(bids, local[layout.BIDs[r]])
	}
	return sub, bids, len(leaves)
}

// InitShard materializes one shard of a partitioned layout as a
// generation root under dir (see ShardRoot): the shard's rows become
// generation 1 of its own store, servable by serve.New exactly like a
// standalone root. Deterministic: every process that initializes shard i
// from the same table + layout writes the same rows, which is what lets
// N demo shard processes bootstrap themselves independently.
func InitShard(dir string, tbl *table.Table, layout *cost.Layout, acs []expr.AdvCut, asn ShardAssignment, opts ...blockstore.WriteOptions) error {
	sub, bids, nblocks := shardSlice(tbl, layout, asn.Leaves)
	l := cost.NewLayout(fmt.Sprintf("shard_%03d", asn.ID), sub, bids, nblocks, acs)
	var opt blockstore.WriteOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	return serve.InitOpts(ShardRoot(dir, asn.ID), sub, l, opt)
}

// InitShards is the offline coordinator: partition the layout, write
// every shard root under dir, and persist the manifest. The returned
// manifest's Addr fields are empty — deployment fills them.
func InitShards(dir string, tbl *table.Table, layout *cost.Layout, acs []expr.AdvCut, nshards int, opts ...blockstore.WriteOptions) (*Manifest, error) {
	if layout == nil || len(layout.BIDs) != tbl.N {
		return nil, fmt.Errorf("cluster: layout does not assign the table's %d rows", tbl.N)
	}
	m := BuildManifest(layout, nshards)
	m.Columns = tbl.Schema.Cols
	for _, asn := range m.Shards {
		if err := InitShard(dir, tbl, layout, acs, asn, opts...); err != nil {
			return nil, fmt.Errorf("cluster: init shard %d: %w", asn.ID, err)
		}
	}
	if err := WriteManifest(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteManifest persists a manifest beside the shard roots.
func WriteManifest(dir string, m *Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, ManifestName))
}

// LoadManifest reads a manifest written by WriteManifest.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parse %s: %w", ManifestName, err)
	}
	return &m, nil
}
