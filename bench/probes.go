package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bst"
	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/msbt"
	"repro/internal/sched"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The layer probes: each times one layer through its exported functions,
// outside any workload, at fixed iteration counts. scale < 1 shrinks the
// counts for the smoke test.
//
// Probe sizes match what the workloads put on the wire: 64 B for a round
// trip (a small control-sized frame), 1 KiB (a scatter part) and 64 KiB
// (an MSBT chunk at d=4 is 256 KiB; 64 KiB is the transport's bulk path
// and what the raw-socket roof uses).
const (
	probeDim    = 6
	planDim     = 7 // no workload runs at d=7, so the first plan build is cold
	rttBytes    = 64
	streamBytes = 64 << 10
)

type probeSet struct {
	scale float64
	out   map[string]float64
}

func (p *probeSet) n(full int) int { return max(1, int(float64(full)*p.scale)) }

// runProbes runs every probe and returns the probe-only per-layer
// metrics by name.
func runProbes(scale float64) (map[string]float64, error) {
	p := &probeSet{scale: scale, out: map[string]float64{}}
	p.tree()
	p.plan()
	p.wire()
	p.mpx()
	p.mailbox()
	for _, step := range []func() error{p.sockets, p.connect, p.svc} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

func (p *probeSet) tree() {
	n := p.n(50000)
	size := 1 << probeDim
	bst.Cached(probeDim, 1) // builds the canonical trees
	msbt.CachedTrees(probeDim, 1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := cube.NodeID(i % size)
		sink += bst.Cached(probeDim, s).Size() + len(msbt.CachedTrees(probeDim, s))
	}
	p.out["tree.lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(2*n)

	n = p.n(64)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		s := cube.NodeID(i % size)
		sink += bst.MustNew(probeDim, s).Size() + len(msbt.MustTrees(probeDim, s))
	}
	p.out["tree.build_us"] = us(time.Since(t0)) / float64(n)
}

func (p *probeSet) plan() {
	t0 := time.Now()
	sink += sched.MultiSourcePlan(planDim).Steps
	p.out["sched.plan_build_us"] = us(time.Since(t0))
	n := p.n(1000000)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sink += sched.MultiSourcePlan(planDim).Steps
	}
	p.out["sched.plan_lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// wire times the codec the socket transports run per frame: the vectored
// encoder and the reader's reusing decode, at two sizes, and fits
// cost = frame_ns + bytes*byte_ns through the two points (encode plus
// decode).
func (p *probeSet) wire() {
	cost := map[int]float64{}
	for _, c := range []struct {
		size  int
		label string
		n     int
	}{{1 << 10, "1k", 200000}, {64 << 10, "64k", 10000}} {
		msg := mpx.Message{Tag: 7, Parts: []mpx.Part{{Dest: 3, Data: bytes.Repeat([]byte{0xA5}, c.size)}}}
		n := p.n(c.n)
		blk := make([]byte, 0, wire.VecOverhead(wire.MaxVersion, msg))
		segs := make([][]byte, 0, 4)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			blk, segs = wire.AppendFrameVec(blk[:0], segs[:0], wire.MaxVersion, msg)
		}
		enc := float64(time.Since(t0).Nanoseconds()) / float64(n)
		sink += len(segs)

		frame := wire.AppendFrameV(nil, wire.MaxVersion, msg)
		rd := bytes.NewReader(frame)
		r := wire.NewReader(rd)
		var fr wire.Frame
		t0 = time.Now()
		for i := 0; i < n; i++ {
			rd.Reset(frame)
			if err := r.ReadAnyInto(&fr); err != nil {
				panic(fmt.Sprintf("bench: wire probe: decoding its own frame: %v", err))
			}
		}
		dec := float64(time.Since(t0).Nanoseconds()) / float64(n)
		p.out["wire.encode_ns_"+c.label] = enc
		p.out["wire.decode_ns_"+c.label] = dec
		cost[c.size] = enc + dec
	}
	p.out["wire.byte_ns"] = (cost[64<<10] - cost[1<<10]) / float64(64<<10-1<<10)
	p.out["wire.frame_ns"] = cost[1<<10] - p.out["wire.byte_ns"]*float64(1<<10)
}

func (p *probeSet) mpx() {
	msg := mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 1, Data: make([]byte, rttBytes)}}}
	n := p.n(100000)
	var rtt, oneWay time.Duration
	m := mpx.New(1, 64)
	// Run returns an error only from the program, which returns none.
	_ = m.Run(func(nd *mpx.Node) error {
		if nd.ID == 0 {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				nd.Send(0, msg)
				nd.Recv()
			}
			rtt = time.Since(t0)
			t0 = time.Now()
			for i := 0; i < n; i++ {
				nd.Send(0, msg)
			}
			nd.Recv() // the peer's "all received"
			oneWay = time.Since(t0)
			return nil
		}
		for i := 0; i < n; i++ {
			nd.Recv()
			nd.Send(0, msg)
		}
		for i := 0; i < n; i++ {
			nd.Recv()
		}
		nd.Send(0, msg)
		return nil
	})
	m.Shutdown()
	p.out["mpx.rtt_us"] = us(rtt) / float64(n)
	p.out["mpx.send_recv_ns"] = float64(oneWay.Nanoseconds()) / float64(n)
}

func (p *probeSet) mailbox() {
	n := p.n(1000000)
	mb := svc.NewMailbox()
	env := mpx.Envelope{Message: mpx.Message{Tag: 1}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		mb.Put(env)
		e, _ := mb.Recv()
		sink += e.Tag
	}
	p.out["svc.mailbox_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// sockets times a 64 B ping-pong and a one-way stream of 64 KiB parts
// between two d=1 endpoints of the transport, and the same bytes over a
// raw net.Conn pair in the same process: the roof a transport change may
// claim the gap to.
func (p *probeSet) sockets() error {
	for _, fam := range []struct{ network, label string }{{"tcp", "tcp"}, {"unix", "uds"}} {
		rtt, stream, err := p.transportPair(fam.network)
		if err != nil {
			return fmt.Errorf("transport probe (%s): %w", fam.network, err)
		}
		roofRTT, roofStream, err := p.rawPair(fam.network)
		if err != nil {
			return fmt.Errorf("raw socket probe (%s): %w", fam.network, err)
		}
		p.out["transport."+fam.label+"_rtt_us"] = rtt
		p.out["transport."+fam.label+"_stream_mib_s"] = stream
		p.out["roof."+fam.label+"_rtt_us"] = roofRTT
		p.out["roof."+fam.label+"_stream_mib_s"] = roofStream
		p.out["transport."+fam.label+"_rtt_over_roof"] = ratio(rtt, roofRTT)
		p.out["transport."+fam.label+"_stream_over_roof"] = ratio(stream, roofStream)
	}
	return nil
}

// connectMesh binds and connects one endpoint per rank of a dim-cube.
func connectMesh(dim int, network string) ([]*transport.TCP, error) {
	size := 1 << uint(dim)
	trs := make([]*transport.TCP, 0, size)
	closeAll := func() {
		for _, tr := range trs {
			tr.Close()
		}
	}
	peers := make([]string, size)
	for i := 0; i < size; i++ {
		tr, err := transport.NewTCP(transport.TCPOptions{
			Dim: dim, Locals: []cube.NodeID{cube.NodeID(i)}, Network: network,
			Depth: comm.CollectiveDepth(dim),
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		trs = append(trs, tr)
		peers[i] = tr.Addr()
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tr.Connect(peers)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeAll()
			return nil, err
		}
	}
	return trs, nil
}

// transportPair returns the median round trip (us) and the one-way
// stream rate (MiB/s) between two connected transport endpoints.
func (p *probeSet) transportPair(network string) (rttUs, mibS float64, err error) {
	trs, err := connectMesh(1, network)
	if err != nil {
		return 0, 0, err
	}
	small := mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 1, Data: make([]byte, rttBytes)}}}
	big := mpx.Message{Tag: 2, Parts: []mpx.Part{{Dest: 1, Data: make([]byte, streamBytes)}}}
	nRTT, nStream := p.n(5000), p.n(2000)
	// send and recv act for one rank; after the first error they do
	// nothing, and recv also gives up when the endpoint goes down.
	send := func(err *error, from int, msg mpx.Message) {
		if *err == nil {
			*err = trs[from].Send(cube.NodeID(from), 0, msg)
		}
	}
	recv := func(err *error, at int) {
		if *err != nil {
			return
		}
		select {
		case <-trs[at].Inbox(cube.NodeID(at)):
		case <-trs[at].Done():
			*err = mpx.ErrDown
		}
	}
	var echoErr error
	done := make(chan struct{})
	go func() { // rank 1: echo the pings, then swallow the stream and confirm
		defer close(done)
		for i := 0; i < nRTT; i++ {
			recv(&echoErr, 1)
			send(&echoErr, 1, small)
		}
		for i := 0; i < nStream; i++ {
			recv(&echoErr, 1)
		}
		send(&echoErr, 1, small)
	}()
	rtts := make([]float64, nRTT)
	for i := range rtts {
		t0 := time.Now()
		send(&err, 0, small)
		recv(&err, 0)
		rtts[i] = us(time.Since(t0))
	}
	t0 := time.Now()
	for i := 0; i < nStream; i++ {
		send(&err, 0, big)
	}
	recv(&err, 0)
	elapsed := time.Since(t0)
	if err != nil {
		trs[1].Close() // the echo side may be waiting for traffic that will not come
	}
	<-done
	trs[0].Close()
	trs[1].Close()
	if err = firstErr(err, echoErr); err != nil {
		return 0, 0, err
	}
	return median(rtts), float64(nStream*streamBytes) / (1 << 20) / elapsed.Seconds(), nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// rawPair is transportPair over a bare connected socket pair: same
// sizes, same counts, no framing, no checksum, no inbox.
func (p *probeSet) rawPair(network string) (rttUs, mibS float64, err error) {
	addr := "127.0.0.1:0"
	if network == "unix" {
		dir, err := os.MkdirTemp("", "hbench")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		addr = filepath.Join(dir, "roof.sock")
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	nRTT, nStream := p.n(5000), p.n(2000)
	var echoErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			echoErr = err
			return
		}
		defer c.Close()
		small := make([]byte, rttBytes)
		for i := 0; i < nRTT && echoErr == nil; i++ {
			if _, echoErr = io.ReadFull(c, small); echoErr == nil {
				_, echoErr = c.Write(small)
			}
		}
		big := make([]byte, streamBytes)
		for i := 0; i < nStream && echoErr == nil; i++ {
			_, echoErr = io.ReadFull(c, big)
		}
		if echoErr == nil {
			_, echoErr = c.Write(small)
		}
	}()
	c, err := net.Dial(network, ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
		<-done
		return 0, 0, err
	}
	// Closed before the echo goroutine is awaited, so a failed write here
	// ends its reads instead of hanging them.
	finish := func() { c.Close(); <-done }
	small := make([]byte, rttBytes)
	rtts := make([]float64, nRTT)
	for i := range rtts {
		t0 := time.Now()
		if _, err = c.Write(small); err == nil {
			_, err = io.ReadFull(c, small)
		}
		if err != nil {
			finish()
			return 0, 0, err
		}
		rtts[i] = us(time.Since(t0))
	}
	big := make([]byte, streamBytes)
	t0 := time.Now()
	for i := 0; i < nStream && err == nil; i++ {
		_, err = c.Write(big)
	}
	if err == nil {
		_, err = io.ReadFull(c, small)
	}
	elapsed := time.Since(t0)
	finish()
	if err = firstErr(err, echoErr); err != nil {
		return 0, 0, err
	}
	return median(rtts), float64(nStream*streamBytes) / (1 << 20) / elapsed.Seconds(), nil
}

// connect times binding and connecting a d=6 TCP mesh: 64 endpoints, 192
// links.
func (p *probeSet) connect() error {
	var samples []float64
	for i := 0; i < p.n(5); i++ {
		t0 := time.Now()
		trs, err := connectMesh(probeDim, "tcp")
		if err != nil {
			return fmt.Errorf("connect probe: %w", err)
		}
		samples = append(samples, ms(time.Since(t0)))
		for _, tr := range trs {
			tr.Close()
		}
	}
	p.out["transport.connect_ms_d6"] = median(samples)
	return nil
}

// svc times the service's fixed cost per job with a program that does
// nothing, on an in-process d=4 cluster: Submit alone, and Submit to
// Wait.
func (p *probeSet) svc() error {
	cl := comm.StartLocalCluster(4, svc.Options{})
	noop := func(*svc.JobContext) error { return nil }
	n := min(p.n(2000), svcTenantCap) // one tenant; stay under the job-ID cap
	submit := make([]float64, n)
	whole := make([]float64, n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		var h *comm.ClusterHandle
		if h, err = cl.Submit(1, noop); err == nil {
			submit[i] = us(time.Since(t0))
			err = h.Wait()
			whole[i] = us(time.Since(t0))
		}
	}
	if derr := cl.Drain(); err == nil {
		err = derr
	}
	if err != nil {
		return fmt.Errorf("svc probe: %w", err)
	}
	p.out["svc.submit_us"] = median(submit)
	p.out["svc.empty_job_us"] = median(whole)
	return nil
}
