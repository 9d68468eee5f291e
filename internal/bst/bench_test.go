package bst

import (
	"testing"

	"repro/internal/cube"
)

// BenchmarkConstruct measures materializing the full validated BST.
func BenchmarkConstruct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubtreeSizes measures the Table 5 inner loop (the necklace
// base over all 2^n addresses) at n = 16.
func BenchmarkSubtreeSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		subtreeSizes(16)
	}
}

// BenchmarkParent measures the per-node distributed routing decision.
func BenchmarkParent(b *testing.B) {
	const n = 12
	mask := cube.NodeID(1<<n - 1)
	var sink cube.NodeID
	for i := 0; i < b.N; i++ {
		p, _ := Parent(n, cube.NodeID(i)&mask, 0)
		sink ^= p
	}
	_ = sink
}
