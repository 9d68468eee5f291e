package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// The reference box is a shared host: the same code runs up to a quarter
// faster or slower from one minute to the next, all four workloads
// together (NOISE.md). The calibrator is the yardstick that drift is
// measured with. Between slices it times a fixed piece of work that uses
// what every workload uses — user-space CPU and cache on all Ps, and the
// kernel's loopback path with a goroutine wake-up per message — and the
// slice's timings are divided by how much slower than calRefMs that work
// ran. It is standard library only, so no change to the product can move
// it.
const (
	calRefMs     = 55.0 // the calibration on the reference box in its usual state
	calBlock     = 256 << 10
	calCacheIter = 1200 // CRC-32C + copy of one block, on every P at once
	calPingPongs = 2400 // 64 B round trips on a loopback TCP connection
)

type calibrator struct {
	procs    int
	src, dst [][]byte
	conn     net.Conn
	echoDone chan struct{}
}

func newCalibrator(procs int) (*calibrator, error) {
	c := &calibrator{procs: procs, echoDone: make(chan struct{})}
	for g := 0; g < procs; g++ {
		b := make([]byte, calBlock)
		for i := range b {
			b[i] = byte(i * (g + 3))
		}
		c.src = append(c.src, b)
		c.dst = append(c.dst, make([]byte, calBlock))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	defer ln.Close()
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	peer, err := ln.Accept()
	if err != nil {
		c.conn.Close()
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	go func() { // echo until close() closes the other end
		defer close(c.echoDone)
		defer peer.Close()
		buf := make([]byte, rttBytes)
		for {
			if _, err := io.ReadFull(peer, buf); err != nil {
				return
			}
			if _, err := peer.Write(buf); err != nil {
				return
			}
		}
	}()
	return c, nil
}

func (c *calibrator) close() {
	c.conn.Close()
	<-c.echoDone
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// run does the fixed work once and returns how long it took.
func (c *calibrator) run() (time.Duration, error) {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint32, c.procs)
	for g := 0; g < c.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < calCacheIter; k++ {
				sums[g] = crc32.Update(sums[g], castagnoli, c.src[g])
				copy(c.dst[g], c.src[g])
			}
		}()
	}
	wg.Wait()
	buf := c.dst[0][:rttBytes]
	for i := 0; i < calPingPongs; i++ {
		if _, err := c.conn.Write(buf); err != nil {
			return 0, fmt.Errorf("calibrator: %w", err)
		}
		if _, err := io.ReadFull(c.conn, buf); err != nil {
			return 0, fmt.Errorf("calibrator: %w", err)
		}
	}
	return time.Since(t0), nil
}
