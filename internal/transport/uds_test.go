package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpx"
)

func TestUDSOneProcessPerNode(t *testing.T) {
	trs := loopback(t, 3, func(o *TCPOptions) { o.Network = "unix" })
	if !strings.HasPrefix(trs[0].Addr(), "unix:") {
		t.Fatalf("Addr() = %q, want unix: scheme", trs[0].Addr())
	}
	if err := runAll(trs, neighborExchange); err != nil {
		t.Fatal(err)
	}
}

func TestUDSResilient(t *testing.T) {
	trs := loopback(t, 2, func(o *TCPOptions) {
		o.Network = "unix"
		o.Resilience = ResilienceOptions{Enabled: true}
	})
	if err := runAll(trs, neighborExchange); err != nil {
		t.Fatal(err)
	}
}

// TestUDSMixedFamilies checks that a mesh can mix address families per
// endpoint: the scheme prefix in each peer entry picks the dial family.
func TestUDSMixedFamilies(t *testing.T) {
	trs := loopback(t, 2, func(o *TCPOptions) {
		if o.Locals[0]%2 == 0 {
			o.Network = "unix"
		}
	})
	if err := runAll(trs, neighborExchange); err != nil {
		t.Fatal(err)
	}
}

// TestTCPProfileSettles drives enough traffic through a socket mesh for
// the online cost estimator to settle, and checks the fitted profile is
// physically plausible. Concurrent Profile reads race real flushes, so
// this doubles as the estimator's data-race drill on the wire backend.
func TestTCPProfileSettles(t *testing.T) {
	trs := loopback(t, 1, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hammer Profile() while traffic flows
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				trs[0].Profile()
				trs[1].Profile()
			}
		}
	}()
	data := make([]byte, 16<<10)
	err := runAll(trs, func(nd *mpx.Node) error {
		const rounds = 200
		for i := 0; i < rounds; i++ {
			nd.Send(0, mpx.Message{Tag: i, Parts: []mpx.Part{{Dest: nd.ID ^ 1, Data: data}}})
			if _, ok := nd.RecvTimeout(10 * time.Second); !ok {
				return fmt.Errorf("timed out in round %d", i)
			}
		}
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	p := trs[0].Profile()
	if !p.Valid() {
		t.Fatalf("profile did not settle after 200 timed flushes: %+v", p)
	}
	if p.Tau <= 0 || p.Tau > 0.1 {
		t.Fatalf("implausible per-frame cost %v", p.Tau)
	}
}
