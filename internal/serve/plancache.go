package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

// planCacheCapacity bounds the row-statement plan cache. Row dashboards
// repeat a small set of statements verbatim; a few hundred entries holds
// every hot plan while an adversarial stream of distinct statements
// cannot grow the map without bound.
const planCacheCapacity = 256

// planCache memoizes parsed row statements. Lookups are by raw SQL
// text; entries are stored under the statement's canonical rendering
// *and* the raw spelling that produced them, so whitespace/case
// variants of one statement share a single plan instead of each
// burning a FIFO slot on a miss. A parsed RowStmt is immutable once
// built (the executor only reads it), so a cached value can be handed
// to concurrent queries as-is. Safe for concurrent use.
//
// The cache key deliberately excludes schema and AC state: both are
// fixed for a server's lifetime (generation swaps change the layout, not
// the schema), so a cached plan can never go stale.
type planCache struct {
	mu    sync.Mutex
	m     map[string]expr.RowStmt
	order []string // insertion order; index 0 evicts first

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[string]expr.RowStmt, planCacheCapacity)}
}

// get returns the cached statement for the raw SQL spelling. It does
// not count the lookup: only the caller knows whether a raw-text miss
// turns into a canonical-key hit after parsing.
func (c *planCache) get(sql string) (expr.RowStmt, bool) {
	c.mu.Lock()
	stmt, ok := c.m[sql]
	c.mu.Unlock()
	return stmt, ok
}

// intern stores stmt under its canonical rendering and aliases the raw
// spelling to it. If another spelling already interned the same
// canonical statement, that cached copy wins and intern reports true —
// the caller should count a hit, not a miss.
func (c *planCache) intern(raw, canon string, stmt expr.RowStmt) (expr.RowStmt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.m[canon]; ok {
		if raw != canon {
			c.insert(raw, cached)
		}
		return cached, true
	}
	c.insert(canon, stmt)
	if raw != canon {
		c.insert(raw, stmt)
	}
	return stmt, false
}

// insert adds one key, evicting the oldest entry once the cache is full
// (FIFO — repeat dashboards re-insert their statements on the next
// miss, so recency tracking buys little here). Callers hold c.mu.
func (c *planCache) insert(key string, stmt expr.RowStmt) {
	if _, ok := c.m[key]; ok {
		return
	}
	if len(c.order) >= planCacheCapacity {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[key] = stmt
	c.order = append(c.order, key)
}
