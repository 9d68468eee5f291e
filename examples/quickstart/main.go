// Quickstart: every node of a 6-cube runs the same program and, from
// inside it, broadcasts a message with the single spanning binomial tree
// (SBT) and with the paper's multiple spanning binomial trees (MSBT),
// receives a personalized payload scattered along the balanced spanning
// tree (BST), and the predicted communication times of the two broadcast
// algorithms are compared.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/model"
)

func main() {
	const n = 6 // 64 nodes
	N := 1 << n

	msg := []byte("hello, hypercube!")
	personal := make([][]byte, N)
	for i := range personal {
		personal[i] = []byte(fmt.Sprintf("ticket-%02x", i))
	}

	// Each rank runs this program; the counters tally correct receipts.
	var sbtOK, msbtOK, scatterOK atomic.Int32
	err := comm.Run(n, func(c *comm.Comm) error {
		var in []byte // only the root's argument is read
		if c.Rank() == 0 {
			in = msg
		}
		// Broadcast: same data to every node, down the SBT ...
		got, err := c.Bcast(0, in)
		if err != nil {
			return err
		}
		if bytes.Equal(got, msg) {
			sbtOK.Add(1)
		}
		// ... and down n edge-disjoint binomial trees, one chunk each.
		got, err = c.BcastMSBT(0, in)
		if err != nil {
			return err
		}
		if bytes.Equal(got, msg) {
			msbtOK.Add(1)
		}
		// Scatter: a personalized payload to every node (BST routing).
		got, err = c.Scatter(0, personal)
		if err != nil {
			return err
		}
		if bytes.Equal(got, personal[c.Rank()]) {
			scatterOK.Add(1)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SBT broadcast: %d/%d nodes received %q\n", sbtOK.Load(), N, msg)
	fmt.Printf("MSBT broadcast: %d/%d nodes reassembled %q from %d edge-disjoint trees\n",
		msbtOK.Load(), N, msg, n)
	fmt.Printf("BST scatter: %d/%d nodes received their own payload\n", scatterOK.Load(), N)
	if sbtOK.Load() != int32(N) || msbtOK.Load() != int32(N) || scatterOK.Load() != int32(N) {
		log.Fatal("VERIFICATION FAILED")
	}
	fmt.Println("verified: every node holds both broadcasts and its own payload")

	// Predicted complexity (paper Table 3), 60 KB message, 1 KB packets.
	p := model.Params{N: n, M: 60 * 1024, B: 1024, Tau: 1.0, Tc: 0.001}
	sbtT := model.BroadcastTime(model.SBT, model.OneSendAndRecv, p)
	msbtT := model.BroadcastTime(model.MSBT, model.OneSendAndRecv, p)
	fmt.Printf("predicted one-port broadcast times: SBT %.1f ms, MSBT %.1f ms (speedup %.2f ~ log N = %d)\n",
		sbtT, msbtT, sbtT/msbtT, n)
}
