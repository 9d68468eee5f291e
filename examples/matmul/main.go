// Distributed matrix multiplication on a hypercube — the paper's first
// motivating use of broadcasting (§1, citing Fox/Otto/Hey's hypercube
// matrix algorithms).
//
// Every node runs the same program. Node 0 owns the k x k matrices A and
// B. It broadcasts B to every node with the MSBT algorithm (each of the n
// edge-disjoint trees carries 1/n of B) and scatters A by row blocks
// along the balanced spanning tree. Every node multiplies its row block
// by B, and the row blocks of C = A*B are gathered at node 0. The result
// is checked against a serial multiplication.
//
// Run with: go run ./examples/matmul
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
	dim = 4  // 16 nodes
	k   = 64 // matrix order; k % N == 0
)

func main() {
	N := 1 << dim
	rows := k / N
	rng := rand.New(rand.NewSource(42))
	A := randomMatrix(rng, k, k)
	B := randomMatrix(rng, k, k)

	blocks := make([][]byte, N)
	for r := 0; r < N; r++ {
		blocks[r] = encodeMatrix(A[r*rows : (r+1)*rows])
	}
	var gathered [][]byte
	err := comm.Run(dim, func(c *comm.Comm) error {
		// Node 0 owns B and broadcasts it to everyone via the MSBT.
		var bBytes []byte
		if c.Rank() == 0 {
			bBytes = encodeMatrix(B)
		}
		gotB, err := c.BcastMSBT(0, bBytes)
		if err != nil {
			return err
		}
		// Node 0 owns A and scatters row blocks (personalized data) via
		// the BST.
		gotA, err := c.Scatter(0, blocks)
		if err != nil {
			return err
		}
		// Every node computes its block of C = A*B locally ...
		myC := multiply(decodeMatrix(gotA, rows, k), decodeMatrix(gotB, k, k))
		// ... and the row blocks of C are gathered at node 0.
		out, err := c.Gather(0, encodeMatrix(myC))
		if c.Rank() == 0 {
			gathered = out
		}
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	C := make([][]float64, 0, k)
	for r := 0; r < N; r++ {
		C = append(C, decodeMatrix(gathered[r], rows, k)...)
	}

	// Verify against a serial product.
	want := multiply(A, B)
	maxErr := 0.0
	for i := range want {
		for j := range want[i] {
			if d := math.Abs(C[i][j] - want[i][j]); d > maxErr {
				maxErr = d
			}
		}
	}
	fmt.Printf("distributed %dx%d matmul over %d nodes: max |error| = %.2e\n", k, k, N, maxErr)
	if maxErr > 1e-9 {
		log.Fatal("VERIFICATION FAILED")
	}
	fmt.Println("verified against serial multiplication")
}

func randomMatrix(rng *rand.Rand, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	return m
}

func multiply(a, b [][]float64) [][]float64 {
	r, inner, c := len(a), len(b), len(b[0])
	out := make([][]float64, r)
	for i := range out {
		out[i] = make([]float64, c)
		for t := 0; t < inner; t++ {
			av := a[i][t]
			for j := 0; j < c; j++ {
				out[i][j] += av * b[t][j]
			}
		}
	}
	return out
}

func encodeMatrix(m [][]float64) []byte {
	out := make([]byte, 0, len(m)*len(m[0])*8)
	for _, row := range m {
		for _, v := range row {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

func decodeMatrix(b []byte, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			bits := binary.LittleEndian.Uint64(b[(i*c+j)*8:])
			m[i][j] = math.Float64frombits(bits)
		}
	}
	return m
}
