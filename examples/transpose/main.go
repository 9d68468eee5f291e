// Distributed matrix transposition — the paper's §1 example of all-to-all
// personalized communication ("matrix transposition is another example of
// personalized communication in that every node sends different data to
// every other node").
//
// A k x k matrix is distributed by row blocks over the N = 2^n nodes. To
// transpose it, node r must send the block A[rL:(r+1)L, vL:(v+1)L]
// (transposed) to node v, for every v — an all-to-all personalized
// exchange, which every node enters from its own program and which runs
// as N concurrent BST scatters, one rooted at each node (the all-node
// extension the paper attributes to [8]).
//
// Run with: go run ./examples/transpose
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
	L := k / N
	rng := rand.New(rand.NewSource(3))

	// Row-block distribution: node r holds rows [rL, (r+1)L).
	A := make([][]float64, k)
	for i := range A {
		A[i] = make([]float64, k)
		for j := range A[i] {
			A[i][j] = rng.NormFloat64()
		}
	}

	// data[r][v] = the LxL block node r sends to node v: the transpose of
	// A[rL:(r+1)L, vL:(v+1)L].
	data := make([][][]byte, N)
	for r := 0; r < N; r++ {
		data[r] = make([][]byte, N)
		for v := 0; v < N; v++ {
			blk := make([]float64, 0, L*L)
			for col := v * L; col < (v+1)*L; col++ {
				for rw := r * L; rw < (r+1)*L; rw++ {
					blk = append(blk, A[rw][col]) // transposed order
				}
			}
			data[r][v] = encodeFloats(blk)
		}
	}

	// got[v][r] is the block node v received from node r.
	got := make([][][]byte, N)
	err := comm.Run(dim, func(c *comm.Comm) error {
		var err error
		got[c.Rank()], err = c.AllToAll(data[c.Rank()])
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// Node v reassembles rows [vL, (v+1)L) of A^T from the N blocks.
	maxErr := 0.0
	for v := 0; v < N; v++ {
		for r := 0; r < N; r++ {
			blk := decodeFloats(got[v][r])
			for bi := 0; bi < L; bi++ { // row within v's block of A^T
				for bj := 0; bj < L; bj++ {
					gotV := blk[bi*L+bj]
					wantV := A[r*L+bj][v*L+bi] // A^T[vL+bi][rL+bj]
					if d := math.Abs(gotV - wantV); d > maxErr {
						maxErr = d
					}
				}
			}
		}
	}
	fmt.Printf("distributed %dx%d transpose over %d nodes (N concurrent BSTs): max |error| = %.2e\n",
		k, k, N, maxErr)
	if maxErr != 0 {
		log.Fatal("VERIFICATION FAILED")
	}
	fmt.Println("verified: every node holds its rows of A^T")
}

func encodeFloats(xs []float64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, v := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func decodeFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
