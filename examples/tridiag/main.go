// Tridiagonal system solution by gather-solve-scatter — the paper's §1
// motivation for personalized communication (citing Johnsson's tridiagonal
// solvers [12]): for certain combinations of start-up time, bandwidth and
// problem size, collecting the whole system at one node, solving serially,
// and distributing the personalized solution pieces beats distributed
// elimination.
//
// Each of the N = 2^n nodes owns a contiguous chunk of a diagonally
// dominant tridiagonal system and runs the same program: the chunks are
// gathered at node 0 along the BST, node 0 runs the Thomas algorithm, and
// the solution chunks are scattered back along the BST (each node
// receives only its own piece — personalized communication). The
// residual is verified, and the predicted times of the gather/scatter
// phases on SBT vs BST routing are printed.
//
// Run with: go run ./examples/tridiag
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/model"
)

const (
	dim   = 5  // 32 nodes
	chunk = 16 // equations per node
)

type row struct{ a, b, c, d float64 } // a x_{i-1} + b x_i + c x_{i+1} = d

func main() {
	N := 1 << dim
	K := N * chunk
	rng := rand.New(rand.NewSource(7))

	// Diagonally dominant system, distributed by chunks.
	sys := make([]row, K)
	for i := range sys {
		sys[i] = row{
			a: rng.Float64(), c: rng.Float64(),
			b: 4 + rng.Float64(), d: rng.NormFloat64(),
		}
		if i == 0 {
			sys[i].a = 0
		}
		if i == K-1 {
			sys[i].c = 0
		}
	}

	got := make([][]byte, N) // each node's solution chunk
	err := comm.Run(dim, func(c *comm.Comm) error {
		me := int(c.Rank())
		// Phase 1: gather all chunks at node 0 (BST routing).
		gathered, err := c.Gather(0, encodeRows(sys[me*chunk:(me+1)*chunk]))
		if err != nil {
			return err
		}
		var pieces [][]byte
		if me == 0 {
			full := make([]row, 0, K)
			for r := 0; r < N; r++ {
				full = append(full, decodeRows(gathered[r])...)
			}
			// Phase 2: node 0 solves serially (Thomas algorithm).
			x := thomas(full)
			pieces = make([][]byte, N)
			for r := 0; r < N; r++ {
				pieces[r] = encodeFloats(x[r*chunk : (r+1)*chunk])
			}
		}
		// Phase 3: scatter each node's solution chunk back (personalized).
		got[me], err = c.Scatter(0, pieces)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// Verify: reassemble per-node solutions and check the residual.
	sol := make([]float64, 0, K)
	for r := 0; r < N; r++ {
		sol = append(sol, decodeFloats(got[r])...)
	}
	maxRes := 0.0
	for i, rw := range sys {
		lhs := rw.b * sol[i]
		if i > 0 {
			lhs += rw.a * sol[i-1]
		}
		if i < K-1 {
			lhs += rw.c * sol[i+1]
		}
		if d := math.Abs(lhs - rw.d); d > maxRes {
			maxRes = d
		}
	}
	fmt.Printf("tridiagonal system of %d equations over %d nodes: max residual %.2e\n", K, N, maxRes)
	if maxRes > 1e-9 {
		log.Fatal("VERIFICATION FAILED")
	}
	fmt.Println("verified: every node holds its own solution chunk")

	// Predicted scatter times (paper Table 6) for this data volume.
	p := model.Params{N: dim, M: float64(chunk * 4 * 8), Tau: 1.0, Tc: 0.001}
	fmt.Printf("predicted scatter T_min: SBT one-port %.1f ms, BST all-port %.1f ms (speedup %.2f ~ 0.5 log N)\n",
		model.ScatterTmin(model.SBT, model.OneSendAndRecv, p),
		model.ScatterTmin(model.BST, model.AllPorts, p),
		model.ScatterTmin(model.SBT, model.AllPorts, p)/model.ScatterTmin(model.BST, model.AllPorts, p))
}

// thomas solves a tridiagonal system by forward elimination and back
// substitution.
func thomas(rows []row) []float64 {
	k := len(rows)
	cp := make([]float64, k)
	dp := make([]float64, k)
	cp[0] = rows[0].c / rows[0].b
	dp[0] = rows[0].d / rows[0].b
	for i := 1; i < k; i++ {
		den := rows[i].b - rows[i].a*cp[i-1]
		cp[i] = rows[i].c / den
		dp[i] = (rows[i].d - rows[i].a*dp[i-1]) / den
	}
	x := make([]float64, k)
	x[k-1] = dp[k-1]
	for i := k - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return x
}

func encodeRows(rs []row) []byte {
	out := make([]byte, 0, len(rs)*32)
	for _, r := range rs {
		for _, v := range []float64{r.a, r.b, r.c, r.d} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

func decodeRows(b []byte) []row {
	out := make([]row, len(b)/32)
	for i := range out {
		v := func(j int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(b[(i*4+j)*8:]))
		}
		out[i] = row{a: v(0), b: v(1), c: v(2), d: v(3)}
	}
	return out
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
