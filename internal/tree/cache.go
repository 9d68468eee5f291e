package tree

import (
	"sync"

	"repro/internal/cube"
)

// CanonCache serves translation-invariant tree families without repeated
// construction. Each of the paper's spanning structures has a parent
// function that depends only on the relative address i XOR s, so the
// family at source s is the XOR-translate (by s) of the canonical family
// at source 0. The cache builds the canonical family once per dimension
// and answers other sources with Translate — O(N) relabeling instead of
// full construction and validation — keeping an LRU of recent
// translations so N-source workloads (gossip, all-to-all) pay for each
// source at most once per eviction window.
//
// A family is a slice of trees: length 1 for SBT/BST, n edge-disjoint
// ERSBTs for the MSBT. The returned slices and trees are shared and
// immutable; callers must not modify them.
type CanonCache struct {
	build func(n int, s cube.NodeID) []*Tree

	mu      sync.Mutex
	canon   map[int][]*Tree // dimension -> family at source 0
	entries map[cacheKey]*cacheEntry
	tick    uint64
	cap     int
}

type cacheKey struct {
	n int
	s cube.NodeID
}

type cacheEntry struct {
	family []*Tree
	used   uint64
}

// translationLRUCap bounds the number of non-canonical translations kept
// per cache. 64 covers a d=6 all-to-all fully; larger sweeps recycle
// entries in LRU order while the canonical families stay pinned.
const translationLRUCap = 64

// NewCanonCache wraps a family constructor. build is called only with
// s == 0 except as a fallback; it must be safe for concurrent use.
func NewCanonCache(build func(n int, s cube.NodeID) []*Tree) *CanonCache {
	return &CanonCache{
		build:   build,
		canon:   make(map[int][]*Tree),
		entries: make(map[cacheKey]*cacheEntry),
		cap:     translationLRUCap,
	}
}

// Get returns the family of trees for dimension n rooted at source s,
// building or translating as needed. Safe for concurrent use.
func (c *CanonCache) Get(n int, s cube.NodeID) []*Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	base, ok := c.canon[n]
	if !ok {
		base = c.build(n, 0)
		c.canon[n] = base
	}
	if s == 0 {
		return base
	}
	key := cacheKey{n, s}
	if e, ok := c.entries[key]; ok {
		e.used = c.tick
		return e.family
	}
	fam := make([]*Tree, len(base))
	for i, t := range base {
		fam[i] = translate(t, s)
	}
	if len(c.entries) >= c.cap {
		var oldest cacheKey
		var min uint64 = ^uint64(0)
		for k, e := range c.entries {
			if e.used < min {
				min, oldest = e.used, k
			}
		}
		delete(c.entries, oldest)
	}
	c.entries[key] = &cacheEntry{family: fam, used: c.tick}
	return fam
}
