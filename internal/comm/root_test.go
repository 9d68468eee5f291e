package comm

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/fault"
)

// TestRootOutsideCube calls each rooted collective with a root past the
// last rank: every rank must fail at once with a *rootError — no hang,
// no panic, no rank left holding nothing without an error — and the same
// communicators must then run a valid broadcast.
func TestRootOutsideCube(t *testing.T) {
	const n = 2
	data := []byte("rooted collectives check their root")
	per := make([][]byte, 1<<n)
	for i := range per {
		per[i] = []byte{byte(i)}
	}
	first := func(a, b []byte) []byte { return a }
	ops := map[string]func(c *Comm, root cube.NodeID) error{
		"Bcast":     func(c *Comm, r cube.NodeID) error { _, err := c.Bcast(r, data); return err },
		"BcastMSBT": func(c *Comm, r cube.NodeID) error { _, err := c.BcastMSBT(r, data); return err },
		"Scatter":   func(c *Comm, r cube.NodeID) error { _, err := c.Scatter(r, per); return err },
		"Gather":    func(c *Comm, r cube.NodeID) error { _, err := c.Gather(r, data); return err },
		"Reduce":    func(c *Comm, r cube.NodeID) error { _, err := c.Reduce(r, data, first); return err },
		"BcastFT":   func(c *Comm, r cube.NodeID) error { _, err := c.BcastFT(r, data); return err },
		"ScatterFT": func(c *Comm, r cube.NodeID) error {
			_, err := c.ScatterFT(r, per, fault.AllAlive(n))
			return err
		},
	}
	for name, op := range ops {
		for _, root := range []cube.NodeID{1 << n, 5, 1 << 20} {
			done := make(chan error, 1)
			go func() {
				done <- Run(n, func(c *Comm) error {
					err := op(c, root)
					var re *rootError
					if !errors.As(err, &re) || re.Root != root || re.Size != 1<<n {
						t.Errorf("%s(root %d) at rank %d: error %v, want a *rootError", name, root, c.Rank(), err)
					}
					got, err := c.Bcast(1, data)
					if err == nil && !bytes.Equal(got, data) {
						t.Errorf("%s(root %d): the next Bcast gave rank %d %q", name, root, c.Rank(), got)
					}
					return err
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s(root %d): %v", name, root, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s(root %d): no answer within 5 s", name, root)
			}
		}
	}
}
