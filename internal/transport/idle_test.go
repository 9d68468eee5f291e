package transport_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/transport"
)

// TestIdleLinksHoldNoBuffers: a socket link holds an encode block and
// its read pump a read buffer only while bytes move through them. Warm
// BST scatters from root 0 on a 3-cube carry data on 7 of its 24
// directed links. Once every rank has returned from the last call, the
// send fence has run and, on resilient links, the peers have
// acknowledged every frame, no link holds an open block, no pump holds a
// read buffer, and neither free list keeps more than its cap.
func TestIdleLinksHoldNoBuffers(t *testing.T) {
	testleak.Check(t)
	const d, calls, size = 3, 200, 1 << 10
	payloads := make([][]byte, 1<<d)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	for _, tc := range []struct {
		name string
		res  transport.ResilienceOptions
	}{{"plain", transport.ResilienceOptions{}}, {"resilient", transport.ResilienceOptions{Enabled: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			// The previous mesh's pumps give their buffers back as they
			// exit; this cleanup, registered first, runs last.
			testleak.Check(t)
			blocks0, bufs0, _, _ := transport.Buffers()
			trs, err := transport.Loopback(d, func(o *transport.TCPOptions) {
				o.Depth, o.Resilience = comm.CollectiveDepth(d), tc.res
			})
			if err != nil {
				t.Fatal(err)
			}
			var ready sync.WaitGroup
			ready.Add(len(trs))
			checked := make(chan struct{})
			errs := make(chan error, len(trs))
			for _, tr := range trs {
				go func(tr *transport.TCP) {
					errs <- comm.RunOn(mpx.NewWithTransport(tr, nil), func(c *comm.Comm) error {
						defer func() { <-checked }()
						defer ready.Done()
						for i := 0; i < calls; i++ {
							if _, err := c.Scatter(0, payloads); err != nil {
								return err
							}
						}
						return nil
					})
				}(tr)
			}
			ready.Wait()
			for _, tr := range trs {
				tr.Settle(tr.Locals()[0])
			}
			var open, unacked, blocksOut, bufsOut, blocksKept, bufsKept int
			for deadline := time.Now().Add(10 * time.Second); ; {
				open, unacked = 0, 0
				for _, tr := range trs {
					o, u := tr.HeldBlocks()
					open, unacked = open+o, unacked+u
				}
				blocksOut, bufsOut, blocksKept, bufsKept = transport.Buffers()
				if open == 0 && blocksOut <= blocks0 && bufsOut <= bufs0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			close(checked)
			for range trs {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
			if open != 0 || blocksOut > blocks0 || bufsOut > bufs0 {
				t.Errorf("idle mesh: %d links hold an open block (%d frames unacknowledged), %d blocks and %d read buffers taken, want none",
					open, unacked, blocksOut-blocks0, bufsOut-bufs0)
			}
			if blocksKept > transport.FreeKeep || bufsKept > transport.FreeKeep {
				t.Errorf("the free lists keep %d blocks and %d read buffers, cap %d", blocksKept, bufsKept, transport.FreeKeep)
			}
		})
	}
}
