// Distributed inner products and prefix sums — the paper's §1 examples of
// the reverse (reduction) operation: "reduction occurs, for example, in
// computing inner products, solving linear recurrences, and parallel
// prefix computation".
//
// Two large vectors are distributed by blocks over the N = 2^n nodes.
// Every node runs the same program: it computes its partial dot product,
// and the partials are then reduced three ways and cross-checked:
//
//  1. Reduce — the reverse of the SBT broadcast: partial results flow up
//     the spanning binomial tree to one node;
//  2. AllReduce — classic hypercube dimension exchange, leaving the result
//     on every node in log N steps;
//  3. Scan — parallel prefix over the node order, whose last node holds
//     the full reduction.
//
// Run with: go run ./examples/innerproduct
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/comm"
)

const (
	dim   = 6    // 64 nodes
	block = 1024 // vector elements per node
)

func main() {
	N := 1 << dim
	total := N * block
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, total)
	y := make([]float64, total)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}

	// Serial reference.
	want := 0.0
	for i := range x {
		want += x[i] * y[i]
	}

	addFloats := func(a, b []byte) []byte {
		return encodeFloat(decodeFloat(a) + decodeFloat(b))
	}

	// Node 0's reduction, and every rank's all-reduce and prefix.
	var one []byte
	all := make([][]byte, N)
	prefixes := make([][]byte, N)
	err := comm.Run(dim, func(c *comm.Comm) error {
		me := int(c.Rank())
		s := 0.0
		for k := me * block; k < (me+1)*block; k++ {
			s += x[k] * y[k]
		}
		partial := encodeFloat(s)

		// 1. All-to-one reduction up the binomial tree to node 0.
		r, err := c.Reduce(0, partial, addFloats)
		if err != nil {
			return err
		}
		if me == 0 {
			one = r
		}
		// 2. Dimension-exchange all-reduce: every node ends with the result.
		if all[me], err = c.AllReduce(partial, addFloats); err != nil {
			return err
		}
		// 3. Parallel prefix: node i holds the dot product of the first
		// (i+1) blocks; the last node holds the full inner product.
		prefixes[me], err = c.Scan(partial, addFloats)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	report("Reduce (to node 0)", decodeFloat(one), want)
	for i := range all {
		if math.Abs(decodeFloat(all[i])-want) > 1e-6*math.Abs(want) {
			log.Fatalf("AllReduce: node %d disagrees", i)
		}
	}
	report(fmt.Sprintf("AllReduce (all %d nodes)", N), decodeFloat(all[0]), want)
	report("Scan (last node's prefix)", decodeFloat(prefixes[N-1]), want)

	// Prefixes must be monotone consistent with the serial partial sums.
	running := 0.0
	for i := 0; i < N; i++ {
		for k := i * block; k < (i+1)*block; k++ {
			running += x[k] * y[k]
		}
		if math.Abs(decodeFloat(prefixes[i])-running) > 1e-6*math.Abs(running)+1e-9 {
			log.Fatalf("Scan: node %d prefix %.6f, want %.6f", i, decodeFloat(prefixes[i]), running)
		}
	}
	fmt.Println("all three reductions verified against the serial result")
}

func report(name string, got, want float64) {
	rel := math.Abs(got-want) / math.Abs(want)
	fmt.Printf("%-28s = %.6f (serial %.6f, rel err %.1e)\n", name, got, want, rel)
	if rel > 1e-9 {
		log.Fatalf("%s: VERIFICATION FAILED", name)
	}
}

func encodeFloat(v float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
}

func decodeFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
