package fault

import (
	"fmt"
	"sync"

	"repro/internal/cube"
)

// Reactive upgrades Regraft from a precomputed repair plan to a
// reactive protocol driver: the membership layer rebinds it to each new
// (epoch, liveness) pair as views change, and collectives ask it for
// the repaired tree rooted wherever the current view needs one. Trees
// are derived lazily and memoized per (epoch, root), so a stable view
// pays the Regraft BFS once per root no matter how many collectives run
// on it, while a view change drops the whole cache in O(1).
//
// Reactive is safe for concurrent use: the transport's supervisor
// goroutines rebind it while collective goroutines read trees.
type Reactive struct {
	n    int
	base func(root cube.NodeID) ParentFunc

	mu    sync.Mutex
	epoch uint64
	live  Liveness
	bound bool
	trees map[cube.NodeID]*Tree
}

// NewReactive returns a Reactive deriving repaired trees for the n-cube
// from the base parent family — base(root) is the fault-free parent
// function of the tree rooted at root (e.g. a curried sbt.Parent,
// bst.Parent, or one rotation of the MSBT family).
func NewReactive(n int, base func(root cube.NodeID) ParentFunc) *Reactive {
	return &Reactive{n: n, base: base}
}

// Rebind installs the liveness of a new membership epoch and invalidates
// every memoized tree. Rebinding to an older epoch than the current one
// is ignored — view floods can deliver epochs out of order, and trees
// must only ever move forward.
func (r *Reactive) Rebind(epoch uint64, live Liveness) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bound && epoch <= r.epoch {
		return
	}
	r.epoch = epoch
	r.live = live.Clone()
	r.bound = true
	r.trees = nil
}

// Epoch returns the currently bound epoch (0 before the first Rebind).
func (r *Reactive) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Tree returns the repaired tree rooted at root for the given epoch.
// It fails if epoch is not the currently bound one — a stale caller
// must re-pin the view and retry rather than build a tree the rest of
// the mesh no longer agrees on — or if the root is dead in the view.
func (r *Reactive) Tree(epoch uint64, root cube.NodeID) (*Tree, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.bound {
		return nil, fmt.Errorf("fault: reactive tree requested before first Rebind")
	}
	if epoch != r.epoch {
		return nil, fmt.Errorf("fault: reactive tree for epoch %d, current epoch is %d", epoch, r.epoch)
	}
	if t, ok := r.trees[root]; ok {
		return t, nil
	}
	t, err := Regraft(r.n, root, r.base(root), r.live, nil)
	if err != nil {
		return nil, err
	}
	if r.trees == nil {
		r.trees = make(map[cube.NodeID]*Tree)
	}
	r.trees[root] = t
	return t, nil
}
