package tx

import (
	"sync"

	"drtm/internal/kvs"
)

// cacheSet holds a node's location caches, one per (remote node, storage
// region) — hash and ordered regions alike — shared by all worker threads of the
// node (Section 5.3). A cache is built on first use and never replaced, and
// every executor remembers the ones it has used (Executor.cacheFor): the lock
// is off the transaction path.
type cacheSet struct {
	mux sync.Mutex
	m   map[cacheKey]*kvs.LocationCache
}

type cacheKey struct{ node, region int }

func newCacheSet() *cacheSet {
	return &cacheSet{m: make(map[cacheKey]*kvs.LocationCache)}
}

// get returns the cache of k, built by build on its first use.
func (s *cacheSet) get(k cacheKey, build func() *kvs.LocationCache) *kvs.LocationCache {
	s.mux.Lock()
	defer s.mux.Unlock()
	c, ok := s.m[k]
	if !ok {
		c = build()
		s.m[k] = c
	}
	return c
}
