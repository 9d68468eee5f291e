// The networked subcommands: `serve` runs one node of a multi-process
// cube over the socket transport (TCP or Unix-domain, see -transport),
// `launch` spawns a whole cube of serve
// processes on localhost and verifies the collectives end to end, and
// `chaos` is the self-healing drill: a launch whose children run chaos
// agents against their own live sockets (or, with -kill-node, lose a
// whole process) while the collectives must either complete correctly
// or fail fast naming the dead peer.
//
// Peer discovery has two modes. With -peers, every process is told the
// full address list up front (the two-terminal workflow: fixed -listen
// ports, same -peers on both sides). Without it, serve prints
// "ADDR <id> <addr>" on stdout and waits for a "PEERS <a0> <a1> ..."
// line on stdin — the handshake `launch` and `chaos` drive for their
// children.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/svc"
	"repro/internal/transport"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	n := fs.Int("n", 3, "cube dimension")
	id := fs.Int("id", 0, "node this process hosts")
	listen := fs.String("listen", "", "listen address (tcp default 127.0.0.1:0 = pick a free port; uds default = fresh socket path)")
	peersS := fs.String("peers", "", "comma-separated listen addresses of all 2^n nodes in node order (empty = stdio handshake: print ADDR, read PEERS)")
	transportS := fs.String("transport", "auto", "socket family for the cube links: tcp, uds, or auto (uds when peers arrive over the stdio handshake — a same-host deployment — tcp with an explicit -peers list)")
	m := fs.Int("m", 4096, "broadcast payload size in bytes")
	rounds := fs.Int("rounds", 1, "workload repetitions (each: msbt broadcast + bst scatter/gather + barrier)")
	runFor := fs.Duration("for", 0, "run workload rounds in lockstep until this much wall-clock time elapses at the root (overrides -rounds)")
	resilient := fs.Bool("resilient", false, "self-healing links: redial with backoff and resume/retransmit on a lost connection instead of failing")
	attempts := fs.Int("attempts", 0, "reconnect attempts per outage before escalating (0 = transport default)")
	budget := fs.Duration("budget", 0, "total reconnect budget per outage before escalating (0 = transport default)")
	deadline := fs.Duration("deadline", 0, "per-collective deadline (0 = block indefinitely)")
	chaos := fs.Bool("chaos", false, "run a chaos agent that kills, flaps and delays this process's own live connections")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the chaos agent's schedule")
	chaosHold := fs.Duration("chaos-hold", 0, "how long chaos flap/delay faults persist (0 = agent default)")
	jobs := fs.Int("jobs", 0, "run this many concurrent collective jobs under the svc runtime instead of the lockstep workload (every process must pass the same -jobs/-tenants/-jobs-seed)")
	tenants := fs.Int("tenants", 4, "number of tenants the job mix rotates over (jobs mode)")
	jobsSeed := fs.Int64("jobs-seed", 1, "base seed for the deterministic job mix (jobs mode)")
	verbose := fs.Bool("v", false, "print a STATS line with the link-health counters after the run")
	fs.Parse(args)

	if *id < 0 || *id >= 1<<uint(*n) {
		return fmt.Errorf("serve: node id %d outside the %d-cube", *id, *n)
	}
	// Resolve the socket family. "auto" picks Unix-domain sockets when the
	// peers arrive over the stdio handshake — launch/chaos/jobs spawn the
	// whole cube on this host, so the TCP/IP stack buys nothing — and TCP
	// when an explicit -peers list may span hosts. Peer addresses are
	// self-describing on the wire ("unix:<path>" vs "host:port"), so mixed
	// choices across processes still interconnect.
	var network string
	switch *transportS {
	case "tcp":
		network = "tcp"
	case "uds":
		network = "unix"
	case "auto":
		if *peersS == "" {
			network = "unix"
		} else {
			network = "tcp"
		}
	default:
		return fmt.Errorf("serve: unknown -transport %q (want tcp, uds or auto)", *transportS)
	}
	tr, err := transport.NewTCP(transport.TCPOptions{
		Dim:     *n,
		Locals:  []cube.NodeID{cube.NodeID(*id)},
		Listen:  *listen,
		Network: network,
		Depth:   comm.CollectiveDepth(*n),
		Resilience: transport.ResilienceOptions{
			Enabled:     *resilient,
			MaxAttempts: *attempts,
			Budget:      *budget,
		},
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	var peers []string
	if *peersS != "" {
		peers = strings.Split(*peersS, ",")
		if len(peers) != 1<<uint(*n) {
			return fmt.Errorf("serve: -peers lists %d addresses, a %d-cube has %d nodes", len(peers), *n, 1<<uint(*n))
		}
	} else {
		fmt.Printf("ADDR %d %s\n", *id, tr.Addr())
		sc := bufio.NewScanner(os.Stdin)
		if !sc.Scan() {
			return fmt.Errorf("serve: stdin closed before the PEERS line arrived")
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 1+1<<uint(*n) || fields[0] != "PEERS" {
			return fmt.Errorf("serve: want %q line with %d addresses, got %q", "PEERS", 1<<uint(*n), sc.Text())
		}
		peers = fields[1:]
	}
	if err := tr.Connect(peers); err != nil {
		return err
	}
	var agent *transport.Chaos
	if *chaos {
		agent = tr.StartChaos(transport.ChaosOptions{
			Seed:  *chaosSeed,
			Kinds: []transport.ChaosKind{transport.ChaosKill, transport.ChaosFlap, transport.ChaosDelay},
			Hold:  *chaosHold,
			Log: func(format string, a ...any) {
				fmt.Printf("CHAOS %d: "+format+"\n", append([]any{*id}, a...)...)
			},
		})
	}
	machine := mpx.NewWithTransport(tr, nil)
	var runErr error
	var handles []*svc.Handle
	if *jobs > 0 {
		handles, runErr = serveJobs(machine, *n, *id, *jobs, *tenants, *jobsSeed)
	} else {
		runErr = comm.RunOn(machine, serveProgram(*m, *rounds, *runFor, *deadline))
	}
	if agent != nil {
		agent.Stop()
	}
	if *verbose {
		if st, ok := machine.Stats(); ok {
			line := fmt.Sprintf("STATS %d: reconnects=%d retransmits=%d crc_dropped=%d acks=%d acks_batched=%d severed=%d replay_hw=%d bytes_sent=%d bytes_recv=%d frames_sent=%d frames_recv=%d payload_delivered=%d member_drops=%d grow_events=%d grow_accepts=%d attaches_recv=%d",
				*id, st.Reconnects, st.Retransmits, st.CRCDropped, st.AcksSent, st.AcksBatched,
				st.SeveredLinks, st.ReplayHighWater,
				st.BytesSent, st.BytesReceived, st.FramesSent, st.FramesReceived, st.PayloadDelivered,
				st.MemberDrops, st.GrowEvents, st.GrowAccepts, st.AttachesReceived)
			// per_job: the payload each job delivered to this node, from
			// its handle.
			perJob := map[int]int64{}
			for _, h := range handles {
				if h != nil && h.Payload > 0 {
					perJob[svc.JobKey(h.Tenant, h.Job)] += h.Payload
				}
			}
			if len(perJob) > 0 {
				keys := make([]int, 0, len(perJob))
				for k := range perJob {
					keys = append(keys, k)
				}
				sort.Ints(keys)
				parts := make([]string, len(keys))
				for i, k := range keys {
					parts[i] = fmt.Sprintf("t%dj%d:%d", svc.KeyTenant(k), svc.KeyJob(k), perJob[k])
				}
				line += " per_job=" + strings.Join(parts, ",")
			}
			fmt.Println(line)
		}
	}
	return runErr
}

// serveJobs runs this process's share of a multi-tenant job mix under
// the svc runtime: submit the deterministic MixedJobSpec sequence (the
// lockstep submission rule — every process in the cube must submit the
// SAME jobs in the SAME order, which the shared -jobs/-tenants/-jobs-seed
// flags guarantee), wait for every handle, and drain. Each job verifies
// its own payloads byte-exactly on every rank, so the OK line is a real
// verdict, not a liveness ping. The handles carry each job's payload for
// the STATS line.
func serveJobs(machine *mpx.Machine, n, id, jobs, tenants int, seed int64) ([]*svc.Handle, error) {
	rt := svc.New(machine, svc.Options{})
	rt.Start()
	handles := make([]*svc.Handle, jobs)
	var firstErr error
	for i := range handles {
		s := comm.MixedJobSpec(n, tenants, seed, i)
		h, err := rt.Submit(s.Tenant, s.Program())
		if err != nil {
			firstErr = fmt.Errorf("submitting job %d %v: %w", i, s, err)
			break
		}
		handles[i] = h
	}
	for i, h := range handles {
		if h == nil {
			continue
		}
		if err := h.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("job %d %v: %w", i, comm.MixedJobSpec(n, tenants, seed, i), err)
		}
	}
	if err := rt.Drain(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return handles, firstErr
	}
	fmt.Printf("OK %d: %d jobs from %d tenants verified (bcast+scatter+allreduce mix)\n", id, jobs, tenants)
	return handles, nil
}

// serveProgram runs the verification workload either a fixed number of
// times (-rounds) or in a lockstep loop until runFor elapses at the
// root (-for): the root measures the clock and broadcasts a one-byte
// continue/stop flag each round, so all ranks agree on the round count
// without shared memory. The timed mode is what keeps collectives in
// flight while a chaos agent or an external kill disturbs the links.
func serveProgram(mbytes, rounds int, runFor, deadline time.Duration) func(c *comm.Comm) error {
	return func(c *comm.Comm) error {
		if deadline > 0 {
			c.SetDeadline(deadline)
		}
		done := 0
		if runFor > 0 {
			start := time.Now()
			for r := 0; ; r++ {
				flag := []byte{1}
				if c.Rank() == 0 && time.Since(start) > runFor {
					flag = []byte{0}
				}
				flag, err := c.Bcast(0, flag)
				if err != nil {
					return fmt.Errorf("round %d continue-flag: %w", r, err)
				}
				if flag[0] == 0 {
					break
				}
				if err := workloadRound(c, mbytes); err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
				done++
			}
		} else {
			for r := 0; r < rounds; r++ {
				if err := workloadRound(c, mbytes); err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
				done++
			}
		}
		fmt.Printf("OK %d: %d round(s) of msbt broadcast (%dB) + bst scatter/gather + all-to-all verified\n", c.Rank(), done, mbytes)
		return nil
	}
}

// workloadRound is one round of the workload every serve process runs:
// an MSBT broadcast (payload chunked down the n edge-disjoint ERSBTs),
// a BST scatter, a gather round-trip proving every rank's payload back
// at the root, a full all-to-all personalized exchange (all 2^n
// sources at once), and a closing barrier. All expected values are
// derived deterministically from the rank, so each process verifies
// its own deliveries with no shared memory.
func workloadRound(c *comm.Comm, mbytes int) error {
	const root = cube.NodeID(0)
	data := make([]byte, mbytes)
	rand.New(rand.NewSource(7)).Read(data) // same bytes in every process

	var in []byte
	if c.Rank() == root {
		in = data
	}
	got, err := c.BcastMSBT(root, in)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("rank %d reassembled a wrong broadcast payload (%d bytes)", c.Rank(), len(got))
	}

	personal := make([][]byte, c.Size())
	for i := range personal {
		personal[i] = []byte(fmt.Sprintf("personal-%d", i))
	}
	var ins [][]byte
	if c.Rank() == root {
		ins = personal
	}
	mine, err := c.Scatter(root, ins)
	if err != nil {
		return err
	}
	if !bytes.Equal(mine, personal[c.Rank()]) {
		return fmt.Errorf("rank %d got scatter payload %q", c.Rank(), mine)
	}
	all, err := c.Gather(root, mine)
	if err != nil {
		return err
	}
	if c.Rank() == root {
		for i := range all {
			if !bytes.Equal(all[i], personal[i]) {
				return fmt.Errorf("gather slot %d wrong at the root", i)
			}
		}
	}

	outbound := make([][]byte, c.Size())
	for j := range outbound {
		outbound[j] = []byte(fmt.Sprintf("a2a-%d-%d", c.Rank(), j))
	}
	pairs, err := c.AllToAll(outbound)
	if err != nil {
		return err
	}
	for i, pkt := range pairs {
		if want := fmt.Sprintf("a2a-%d-%d", i, c.Rank()); string(pkt) != want {
			return fmt.Errorf("rank %d got all-to-all packet %q from %d, want %q", c.Rank(), pkt, i, want)
		}
	}
	return c.Barrier()
}

// cubeProc is one spawned serve child with its wired pipes.
type cubeProc struct {
	cmd    *exec.Cmd
	out    *bufio.Scanner
	in     *bufio.Writer // the child's stdin, kept open after the handshake
	stderr *bytes.Buffer // nil unless stderr is captured
}

// spawnCube starts one serve child per cube node, runs the ADDR/PEERS
// discovery handshake, and returns the wired processes, the discovered
// peer address list, and a killAll for abandoning the job. Each child's
// stdin stays open (cubeProc.in) so drills can send runtime commands —
// the churn drill drives CRASH/DRAIN/STOP over it. With captureStderr
// the children's stderr is buffered per child for post-mortem
// inspection (the chaos drill reads it to find the dead peer's name);
// otherwise it interleaves on the parent's stderr.
func spawnCube(N int, argsFor func(i int) []string, captureStderr bool) ([]*cubeProc, []string, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, nil, err
	}
	procs := make([]*cubeProc, N)
	killAll := func() {
		for _, p := range procs {
			if p != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
			}
		}
	}
	for i := 0; i < N; i++ {
		cmd := exec.Command(exe, argsFor(i)...)
		p := &cubeProc{cmd: cmd}
		if captureStderr {
			p.stderr = &bytes.Buffer{}
			cmd.Stderr = p.stderr
		} else {
			cmd.Stderr = os.Stderr
		}
		inPipe, err := cmd.StdinPipe()
		if err != nil {
			killAll()
			return nil, nil, nil, err
		}
		outPipe, err := cmd.StdoutPipe()
		if err != nil {
			killAll()
			return nil, nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			killAll()
			return nil, nil, nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		p.out = bufio.NewScanner(outPipe)
		// The jobs-mode STATS line carries one per_job entry per job and
		// can outgrow the scanner's 64KB default token limit.
		p.out.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		p.in = bufio.NewWriter(inPipe)
		procs[i] = p
	}

	// Phase 1: collect every child's ADDR announcement.
	peers := make([]string, N)
	for i, p := range procs {
		if !p.out.Scan() {
			killAll()
			return nil, nil, nil, fmt.Errorf("node %d exited before announcing its address", i)
		}
		fields := strings.Fields(p.out.Text())
		if len(fields) != 3 || fields[0] != "ADDR" || fields[1] != fmt.Sprint(i) {
			killAll()
			return nil, nil, nil, fmt.Errorf("node %d announced %q, want \"ADDR %d <addr>\"", i, p.out.Text(), i)
		}
		peers[i] = fields[2]
	}

	// Phase 2: hand the full address list to every child.
	peerLine := "PEERS " + strings.Join(peers, " ") + "\n"
	for i, p := range procs {
		if _, err := p.in.WriteString(peerLine); err != nil || p.in.Flush() != nil {
			killAll()
			return nil, nil, nil, fmt.Errorf("feeding peers to node %d: %v", i, err)
		}
	}
	return procs, peers, killAll, nil
}

func cmdLaunch(args []string) error {
	fs := flag.NewFlagSet("launch", flag.ExitOnError)
	n := fs.Int("n", 3, "cube dimension (spawns 2^n serve processes)")
	m := fs.Int("m", 4096, "broadcast payload size in bytes")
	transportS := fs.String("transport", "auto", "socket family the children link over: tcp, uds, or auto (same-host launch = uds)")
	fs.Parse(args)

	N := 1 << uint(*n)
	procs, _, killAll, err := spawnCube(N, func(i int) []string {
		return []string{"serve", "-n", fmt.Sprint(*n), "-id", fmt.Sprint(i), "-m", fmt.Sprint(*m),
			"-transport", *transportS}
	}, false)
	if err != nil {
		return fmt.Errorf("launch: %w", err)
	}

	// Phase 3: relay child output and wait for the verdicts.
	var mu sync.Mutex
	okSeen := make([]bool, N)
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *cubeProc) {
			defer wg.Done()
			for p.out.Scan() {
				line := p.out.Text()
				if strings.HasPrefix(line, fmt.Sprintf("OK %d:", i)) {
					mu.Lock()
					okSeen[i] = true
					mu.Unlock()
				}
				fmt.Printf("[node %d] %s\n", i, line)
			}
		}(i, p)
	}
	wg.Wait()
	var firstErr error
	for i, p := range procs {
		if err := p.cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("launch: node %d: %w", i, err)
			killAll() // abort the job: a dead rank would hang the rest
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for i, ok := range okSeen {
		if !ok {
			return fmt.Errorf("launch: node %d exited cleanly but never reported OK", i)
		}
	}
	// Children resolve "auto" themselves; under the launcher's stdio
	// handshake that is always the same-host answer, uds.
	family := *transportS
	if family == "auto" {
		family = "uds"
	}
	fmt.Printf("launch: %d processes, every rank verified msbt broadcast + bst scatter + all-to-all (transport %s)\n", N, family)
	return nil
}

// cmdChaos is the multi-process self-healing drill. Default mode:
// spawn a cube of resilient serve processes, each running a chaos agent
// against its own live sockets, keep lockstep collectives flowing for
// -for, and require every rank to verify every payload despite at
// least -min-events injected faults. With -kill-node the agents stay
// off and one child is killed outright instead: the run must then FAIL
// fast — survivors exhaust their reconnect budgets and name the dead
// peer — and the drill passes only if that happens within the wait
// bound (no hang, no false OK).
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	n := fs.Int("n", 3, "cube dimension (spawns 2^n serve processes)")
	m := fs.Int("m", 4096, "broadcast payload size in bytes")
	runFor := fs.Duration("for", time.Second, "keep lockstep collective rounds running this long")
	seed := fs.Int64("seed", 1, "base chaos seed; child i's agent runs schedule seed+i")
	hold := fs.Duration("hold", 60*time.Millisecond, "how long chaos flap/delay faults persist inside the children")
	attempts := fs.Int("attempts", 0, "reconnect attempts per outage (0 = transport default)")
	budget := fs.Duration("budget", 0, "reconnect budget per outage (0 = transport default)")
	deadline := fs.Duration("deadline", 0, "per-collective deadline inside the children (0 = none)")
	minEvents := fs.Int("min-events", 1, "fail unless the agents injected at least this many faults")
	killNode := fs.Int("kill-node", -1, "kill this child outright instead of running agents: the budget-exhaustion drill")
	killAfter := fs.Duration("kill-after", 200*time.Millisecond, "when to deliver the -kill-node kill")
	transportS := fs.String("transport", "auto", "socket family the children link over: tcp, uds, or auto (same-host launch = uds)")
	fs.Parse(args)

	N := 1 << uint(*n)
	if *killNode >= N {
		return fmt.Errorf("chaos: -kill-node %d outside the %d-cube", *killNode, *n)
	}
	childArgs := func(i int) []string {
		a := []string{"serve", "-n", fmt.Sprint(*n), "-id", fmt.Sprint(i), "-m", fmt.Sprint(*m),
			"-resilient", "-for", runFor.String(), "-v", "-transport", *transportS}
		if *attempts > 0 {
			a = append(a, "-attempts", fmt.Sprint(*attempts))
		}
		if *budget > 0 {
			a = append(a, "-budget", budget.String())
		}
		if *deadline > 0 {
			a = append(a, "-deadline", deadline.String())
		}
		if *killNode < 0 {
			a = append(a, "-chaos", "-chaos-seed", fmt.Sprint(*seed+int64(i)), "-chaos-hold", hold.String())
		}
		return a
	}
	procs, _, killAll, err := spawnCube(N, childArgs, true)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	start := time.Now()

	var mu sync.Mutex
	okSeen := make([]bool, N)
	chaosEvents := 0
	exitErrs := make([]error, N)
	done := make(chan int, N)
	for i, p := range procs {
		go func(i int, p *cubeProc) {
			for p.out.Scan() {
				line := p.out.Text()
				mu.Lock()
				if strings.HasPrefix(line, fmt.Sprintf("OK %d:", i)) {
					okSeen[i] = true
				}
				if strings.HasPrefix(line, "CHAOS ") {
					chaosEvents++
				}
				mu.Unlock()
				fmt.Printf("[node %d] %s\n", i, line)
			}
			// The pipe is drained; now it is safe to reap the child.
			err := p.cmd.Wait()
			mu.Lock()
			exitErrs[i] = err
			mu.Unlock()
			done <- i
		}(i, p)
	}

	if *killNode >= 0 {
		victim := procs[*killNode].cmd
		killTimer := time.AfterFunc(*killAfter, func() {
			fmt.Printf("chaos: killing node %d (pid %d) after %v\n", *killNode, victim.Process.Pid, *killAfter)
			victim.Process.Kill()
		})
		defer killTimer.Stop()
	}

	// The no-hang guarantee is part of the contract under test: bound
	// the whole drill by the time the children could legitimately need
	// (the workload window, the kill delay, one reconnect budget for
	// the direct neighbors of a dead peer) plus cascade-and-exit grace.
	effBudget := *budget
	if effBudget == 0 {
		effBudget = 10 * time.Second // the transport's default budget
	}
	waitTimeout := *runFor + *killAfter + effBudget + 20*time.Second
	hangTimer := time.NewTimer(waitTimeout)
	defer hangTimer.Stop()
	for got := 0; got < N; got++ {
		select {
		case <-done:
		case <-hangTimer.C:
			killAll()
			return fmt.Errorf("chaos: run hung — %d/%d children still alive after %v; the no-hang guarantee failed", N-got, N, waitTimeout)
		}
	}
	elapsed := time.Since(start)

	// Post-mortem: replay every child's captured stderr, prefixed.
	for i, p := range procs {
		if s := strings.TrimSpace(p.stderr.String()); s != "" {
			for _, line := range strings.Split(s, "\n") {
				fmt.Printf("[node %d!] %s\n", i, line)
			}
		}
	}

	if *killNode >= 0 {
		allOK := true
		for _, ok := range okSeen {
			allOK = allOK && ok
		}
		if allOK {
			return fmt.Errorf("chaos: every rank finished before the kill landed — raise -for or lower -kill-after")
		}
		failed := 0
		for i, e := range exitErrs {
			if i != *killNode && e != nil {
				failed++
			}
		}
		if failed == 0 {
			return fmt.Errorf("chaos: node %d was killed yet every survivor exited cleanly", *killNode)
		}
		needle := fmt.Sprintf("link to peer %d failed", *killNode)
		named := false
		for i, p := range procs {
			if i != *killNode && strings.Contains(p.stderr.String(), needle) {
				named = true
				break
			}
		}
		if !named {
			return fmt.Errorf("chaos: no survivor named the dead peer %d (want %q in a child's error)", *killNode, needle)
		}
		fmt.Printf("chaos: budget-exhaustion drill passed: killed node %d, %d survivors failed fast (%v total) naming the dead peer\n",
			*killNode, failed, elapsed.Round(time.Millisecond))
		return nil
	}

	var firstErr error
	for i, e := range exitErrs {
		if e != nil && firstErr == nil {
			firstErr = fmt.Errorf("chaos: node %d: %w", i, e)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for i, ok := range okSeen {
		if !ok {
			return fmt.Errorf("chaos: node %d exited cleanly but never reported OK", i)
		}
	}
	if chaosEvents < *minEvents {
		return fmt.Errorf("chaos: agents injected %d events, want at least %d — raise -for", chaosEvents, *minEvents)
	}
	fmt.Printf("chaos: %d processes survived %d injected faults over %v; every rank verified msbt broadcast + bst scatter/gather\n",
		N, chaosEvents, elapsed.Round(time.Millisecond))
	return nil
}

// cmdJobs is the multi-process collective-service drill: spawn a cube
// of serve processes in jobs mode, all submitting the identical
// deterministic multi-tenant job mix (the lockstep submission rule made
// concrete across OS processes), and require every rank to verify every
// job byte-exactly. The parent additionally aggregates the per-job
// payload counters from the children's STATS lines and fails unless
// every submitted job actually moved accounted payload — the service's
// metering must cover the whole mix, not just complete it. With -chaos
// the children run seeded chaos agents against their own resilient
// links while the jobs flow (the multi-job soak).
func cmdJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	n := fs.Int("n", 3, "cube dimension (spawns 2^n serve processes)")
	jobs := fs.Int("jobs", 24, "concurrent collective jobs in the mix")
	tenants := fs.Int("tenants", 4, "tenants the mix rotates over")
	seed := fs.Int64("seed", 1, "base seed for the deterministic job mix")
	resilient := fs.Bool("resilient", false, "run the children with self-healing links")
	chaos := fs.Bool("chaos", false, "run chaos agents inside the children while the jobs flow (implies -resilient)")
	chaosSeed := fs.Int64("chaos-seed", 1, "base chaos seed; child i's agent runs schedule chaos-seed+i")
	hold := fs.Duration("hold", 60*time.Millisecond, "how long chaos flap/delay faults persist inside the children")
	minEvents := fs.Int("min-events", 1, "with -chaos, fail unless the agents injected at least this many faults")
	transportS := fs.String("transport", "auto", "socket family the children link over: tcp, uds, or auto (same-host launch = uds)")
	fs.Parse(args)

	if *tenants < 1 {
		return fmt.Errorf("jobs: -tenants must be at least 1")
	}
	N := 1 << uint(*n)
	childArgs := func(i int) []string {
		a := []string{"serve", "-n", fmt.Sprint(*n), "-id", fmt.Sprint(i),
			"-jobs", fmt.Sprint(*jobs), "-tenants", fmt.Sprint(*tenants),
			"-jobs-seed", fmt.Sprint(*seed), "-v", "-transport", *transportS}
		if *resilient || *chaos {
			a = append(a, "-resilient")
		}
		if *chaos {
			a = append(a, "-chaos", "-chaos-seed", fmt.Sprint(*chaosSeed+int64(i)), "-chaos-hold", hold.String())
		}
		return a
	}
	procs, _, killAll, err := spawnCube(N, childArgs, false)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	start := time.Now()

	var mu sync.Mutex
	okSeen := make([]bool, N)
	chaosEvents := 0
	perJob := map[string]int64{} // "t<tenant>j<job>" -> payload bytes, summed across children
	exitErrs := make([]error, N)
	done := make(chan int, N)
	for i, p := range procs {
		go func(i int, p *cubeProc) {
			for p.out.Scan() {
				line := p.out.Text()
				mu.Lock()
				if strings.HasPrefix(line, fmt.Sprintf("OK %d:", i)) {
					okSeen[i] = true
				}
				if strings.HasPrefix(line, "CHAOS ") {
					chaosEvents++
				}
				if idx := strings.Index(line, " per_job="); idx >= 0 {
					for _, ent := range strings.Split(line[idx+len(" per_job="):], ",") {
						key, val, ok := strings.Cut(ent, ":")
						if !ok {
							continue
						}
						var b int64
						if _, err := fmt.Sscanf(val, "%d", &b); err == nil {
							perJob[key] += b
						}
					}
				}
				mu.Unlock()
				fmt.Printf("[node %d] %s\n", i, line)
			}
			err := p.cmd.Wait()
			mu.Lock()
			exitErrs[i] = err
			mu.Unlock()
			done <- i
		}(i, p)
	}

	// Bound the drill: the jobs are small collectives, so even a chaotic
	// run should finish inside one reconnect budget per fault plus grace.
	waitTimeout := 90 * time.Second
	hangTimer := time.NewTimer(waitTimeout)
	defer hangTimer.Stop()
	for got := 0; got < N; got++ {
		select {
		case <-done:
		case <-hangTimer.C:
			killAll()
			return fmt.Errorf("jobs: run hung — %d/%d children still alive after %v", N-got, N, waitTimeout)
		}
	}
	elapsed := time.Since(start)

	var firstErr error
	for i, e := range exitErrs {
		if e != nil && firstErr == nil {
			firstErr = fmt.Errorf("jobs: node %d: %w", i, e)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for i, ok := range okSeen {
		if !ok {
			return fmt.Errorf("jobs: node %d exited cleanly but never reported OK", i)
		}
	}
	var total int64
	for _, b := range perJob {
		total += b
	}
	if len(perJob) < *jobs {
		return fmt.Errorf("jobs: per-job payload accounting covers %d job keys, want %d — some jobs moved no accounted payload", len(perJob), *jobs)
	}
	if *chaos && chaosEvents < *minEvents {
		return fmt.Errorf("jobs: agents injected %d events, want at least %d", chaosEvents, *minEvents)
	}
	if *chaos {
		fmt.Printf("jobs: %d processes × %d jobs from %d tenants verified under %d injected faults over %v; per-job metering covered %d keys (%d payload bytes)\n",
			N, *jobs, *tenants, chaosEvents, elapsed.Round(time.Millisecond), len(perJob), total)
	} else {
		fmt.Printf("jobs: %d processes × %d jobs from %d tenants verified over %v; per-job metering covered %d keys (%d payload bytes)\n",
			N, *jobs, *tenants, elapsed.Round(time.Millisecond), len(perJob), total)
	}
	return nil
}
