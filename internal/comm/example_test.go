package comm_test

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/comm"
)

// Every node runs the same program, exactly like an iPSC application: the
// root broadcasts a greeting down the spanning binomial tree, then all
// ranks sum their ranks with an all-reduce up the same tree and back down.
func ExampleRun() {
	var mu sync.Mutex
	var lines []string
	err := comm.Run(2, func(c *comm.Comm) error {
		var in []byte
		if c.Rank() == 0 {
			in = []byte("go")
		}
		msg, err := c.Bcast(0, in)
		if err != nil {
			return err
		}
		sum, err := c.AllReduce([]byte{byte(c.Rank())}, func(a, b []byte) []byte {
			return []byte{a[0] + b[0]}
		})
		if err != nil {
			return err
		}
		mu.Lock()
		lines = append(lines, fmt.Sprintf("rank %d: msg=%s sum=%d", c.Rank(), msg, sum[0]))
		mu.Unlock()
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// rank 0: msg=go sum=6
	// rank 1: msg=go sum=6
	// rank 2: msg=go sum=6
	// rank 3: msg=go sum=6
}
