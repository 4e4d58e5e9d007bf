package tx

import (
	"sync"

	"drtm/internal/kvs"
)

// cacheSet holds a node's location caches, one per (remote node, table),
// shared by all worker threads of the node (Section 5.3). A cache is built on
// first use and never replaced, and every executor remembers the ones it has
// used (Executor.cacheFor): the lock is off the transaction path.
type cacheSet struct {
	mux sync.Mutex
	m   map[cacheKey]kvs.Cache
}

type cacheKey struct{ node, table int }

func newCacheSet() *cacheSet {
	return &cacheSet{m: make(map[cacheKey]kvs.Cache)}
}

// stats sums hit/miss/invalidation counters over all caches in the set.
func (s *cacheSet) stats() (hits, misses, invals int64) {
	s.mux.Lock()
	defer s.mux.Unlock()
	for _, c := range s.m {
		h, m, i := c.Stats()
		hits += h
		misses += m
		invals += i
	}
	return
}

func (s *cacheSet) get(node, table, budgetBytes int, build func(int) kvs.Cache) kvs.Cache {
	s.mux.Lock()
	defer s.mux.Unlock()
	k := cacheKey{node, table}
	c, ok := s.m[k]
	if !ok {
		c = build(budgetBytes)
		s.m[k] = c
	}
	return c
}
