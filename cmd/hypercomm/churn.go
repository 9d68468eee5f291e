// The elastic-membership subcommands: `member` runs ONE rank of an
// elastic mesh in this OS process — a mesh whose population changes at
// runtime — driving root-signed collective rounds and taking runtime
// commands (CRASH / DRAIN / STOP) on stdin; `join` is a late joiner
// that attaches to a running mesh through a dead rank's hole; `drain`
// is a member that leaves gracefully after a delay; and `churn` is the
// seeded storm drill: spawn a cube of member processes, crash one
// mid-traffic, join a fresh incarnation back into the hole, drain
// another, and verify that every collective round either completed
// byte-exactly on some membership epoch or failed with the typed
// view-change error and was retried — never a wrong answer, never a
// hang — and that the run ends with a verified broadcast over the
// final view.
//
// Child protocol (stdout): "ADDR <id> <addr>" then, after the PEERS
// line (or with explicit -peers, immediately), "READY <id> epoch=E";
// "VIEW <id> epoch=E dim=D alive=H drained=H" on every membership
// change;
// and one final verdict line — "DONE", "CRASHED" or "DRAINED" — with
// the completed/vchanged counters. The parent aggregates those lines
// into the drill verdict.
package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/member"
	"repro/internal/transport"
)

// ---- round signature ----

// churnSig is the root's round signature: round number, stop flag, the
// cube dimension the root pinned, and a round-determined filler every
// receiver verifies byte-for-byte. The signature carries enough
// identity for followers to deduplicate rounds the root retries after
// a view change, and the dim stamp turns any mixed-dimension
// collective — a root and a follower pinned on different cube sizes —
// into a hard byte mismatch instead of a silent wrong answer.
func churnSig(round int, stop bool, dim int) []byte {
	b := make([]byte, 64)
	binary.BigEndian.PutUint32(b, uint32(round))
	if stop {
		b[4] = 1
	}
	b[5] = byte(dim)
	for i := 6; i < len(b); i++ {
		b[i] = byte(round*31 + i)
	}
	return b
}

// parseChurnSig validates a received signature byte-for-byte against
// the receiver's own pinned dimension and returns its round number and
// stop flag.
func parseChurnSig(data []byte, dim int) (round int, stop bool, err error) {
	if len(data) != 64 {
		return 0, false, fmt.Errorf("round payload is %d bytes, want 64", len(data))
	}
	round = int(binary.BigEndian.Uint32(data))
	stop = data[4] == 1
	if int(data[5]) != dim {
		return 0, false, fmt.Errorf("round %d was signed on a %d-cube but received on a %d-cube — the epoch gate leaked a mixed-dimension collective",
			round, data[5], dim)
	}
	if want := churnSig(round, stop, dim); !bytes.Equal(data, want) {
		return 0, false, fmt.Errorf("round %d payload corrupted", round)
	}
	return round, stop, nil
}

func isViewChangedErr(err error) bool {
	var vce *member.ViewChangedError
	return errors.As(err, &vce)
}

// churnRounds is the drill program every member runs: root-signed
// collective rounds on the pinned view. The role is view-derived —
// whoever is the lowest live rank drives the rounds — so the drill
// keeps flowing even if the original root leaves. A view change
// mid-round counts a retry and re-pins; followers deduplicate the
// root's replays by round number.
func churnRounds(s *comm.Session, st *memberStats, stopNow func() bool) error {
	last := -1
	round := 0
	graceLeft := -1
	for {
		vc, err := s.Pin()
		if err != nil {
			return err
		}
		if vc.Rank() == vc.Root() {
			if graceLeft < 0 && stopNow() {
				// Two further rounds on the then-current view make the stop
				// round itself a verified broadcast over the final view.
				graceLeft = 2
			}
			stop := graceLeft == 0
			payload := churnSig(round, stop, vc.View().Dim)
			if err := churnRootRound(vc, payload); err != nil {
				if isViewChangedErr(err) {
					st.vchanged++
					continue // retry the SAME round on the new view
				}
				return err
			}
			st.completed++
			round++
			if graceLeft > 0 {
				graceLeft--
			}
			if stop {
				return nil
			}
			continue
		}
		data, err := vc.Bcast(nil)
		if isViewChangedErr(err) {
			st.vchanged++
			continue
		}
		if err != nil {
			return err
		}
		r, stop, err := parseChurnSig(data, vc.View().Dim)
		if err != nil {
			return fmt.Errorf("rank %d: %w", vc.Rank(), err)
		}
		_, err = vc.Gather(data)
		if isViewChangedErr(err) {
			st.vchanged++
			continue
		}
		if err != nil {
			return err
		}
		if r != last {
			st.completed++
			last = r
			round = r + 1 // continue the numbering if promoted to root
		}
		if stop {
			return nil
		}
	}
}

// churnRootRound drives one round at the root: broadcast the signature,
// gather every live rank's echo, verify byte-exact delivery.
func churnRootRound(vc *comm.ViewComm, payload []byte) error {
	if _, err := vc.Bcast(payload); err != nil {
		return err
	}
	sums, err := vc.Gather(payload)
	if err != nil {
		return err
	}
	for r := 0; r < vc.Size(); r++ {
		if !vc.View().Alive(cube.NodeID(r)) {
			continue
		}
		if !bytes.Equal(sums[r], payload) {
			return fmt.Errorf("rank %d echoed %d bytes, want the %d-byte signature",
				r, len(sums[r]), len(payload))
		}
	}
	return nil
}

type memberStats struct {
	completed int64 // rounds finished (deduplicated)
	vchanged  int64 // view-change retries observed
}

// viewMasks packs a view into alive/drained rank bitmasks (the member
// subcommands cap the dimension at 6, so 64 bits always fit).
func viewMasks(v member.View) (alive, drained uint64) {
	for r := 0; r < v.Size() && r < 64; r++ {
		switch v.Stat[r] {
		case member.Alive:
			alive |= 1 << uint(r)
		case member.Drained:
			drained |= 1 << uint(r)
		}
	}
	return alive, drained
}

// isExpectedMemberExit accepts the ways a crashed or drained rank's
// program legitimately ends: the transport torn down underneath it, or
// its own rank leaving the view.
func isExpectedMemberExit(err error) bool {
	s := err.Error()
	for _, needle := range []string{
		"machine stopped", "connection lost", "is not alive in view",
		"transport is closed", "closed",
	} {
		if strings.Contains(s, needle) {
			return true
		}
	}
	return false
}

// ---- the member child ----

func cmdMember(args []string) error {
	fs := flag.NewFlagSet("member", flag.ExitOnError)
	n := fs.Int("n", 2, "cube dimension")
	id := fs.Int("id", 0, "rank this process hosts")
	listen := fs.String("listen", "", "listen address (tcp default 127.0.0.1:0; uds default = fresh socket path)")
	peersS := fs.String("peers", "", "comma-separated listen addresses in rank order; EMPTY entries mark dead ranks' holes (empty flag = stdio ADDR/PEERS handshake)")
	transportS := fs.String("transport", "auto", "socket family: tcp, uds, or auto (uds under the stdio handshake, tcp with -peers)")
	join := fs.Bool("join", false, "attach as a late joiner through a hole in a running mesh instead of founding it")
	runFor := fs.Duration("for", 2*time.Minute, "root only: stop the mesh after this long (0 = only a STOP command stops it)")
	drainAfter := fs.Duration("drain-after", 0, "leave gracefully (drain) this long after attaching (0 = stay)")
	attempts := fs.Int("attempts", 4, "reconnect attempts per outage before the peer is declared dead")
	budget := fs.Duration("budget", 2*time.Second, "reconnect budget per outage — the crash-detection latency")
	verbose := fs.Bool("v", false, "log membership diagnostics to stderr")
	fs.Parse(args)

	N := 1 << uint(*n)
	if *n < 1 || *n > 6 {
		return fmt.Errorf("member: dimension %d outside 1..6", *n)
	}
	if *id < 0 || *id >= N {
		return fmt.Errorf("member: rank %d outside the %d-cube", *id, *n)
	}
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
		return fmt.Errorf("member: unknown -transport %q (want tcp, uds or auto)", *transportS)
	}
	if *join && *peersS == "" {
		return fmt.Errorf("member: a joiner needs an explicit -peers list (the stdio handshake only founds meshes)")
	}

	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "member %d: "+format+"\n", append([]any{*id}, a...)...)
		}
	}
	// stdout carries the line protocol the churn parent parses; VIEW
	// lines arrive from transport goroutines, so serialize the writes.
	var outMu sync.Mutex
	say := func(format string, a ...any) {
		outMu.Lock()
		fmt.Printf(format+"\n", a...)
		outMu.Unlock()
	}

	e, err := comm.NewElastic(comm.ElasticOptions{
		Dim: *n, Self: cube.NodeID(*id), Join: *join,
		Network: network,
		Listen:  *listen,
		Resilience: transport.ResilienceOptions{
			Enabled:     true,
			MaxAttempts: *attempts,
			Budget:      *budget,
		},
		HandshakeTimeout: 30 * time.Second,
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	defer e.Close()

	sc := bufio.NewScanner(os.Stdin)
	var peers []string
	if *peersS != "" {
		peers = strings.Split(*peersS, ",")
		if len(peers) != N {
			return fmt.Errorf("member: -peers lists %d addresses, a %d-cube has %d nodes", len(peers), *n, N)
		}
	} else {
		say("ADDR %d %s", *id, e.Addr())
		if !sc.Scan() {
			return fmt.Errorf("member: stdin closed before the PEERS line arrived")
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 1+N || fields[0] != "PEERS" {
			return fmt.Errorf("member: want %q line with %d addresses, got %q", "PEERS", N, sc.Text())
		}
		peers = fields[1:]
	}

	if *join {
		if err := e.Join(peers, 30*time.Second); err != nil {
			return err
		}
	} else if err := e.Connect(peers); err != nil {
		return err
	}

	e.Manager().Subscribe(func(v member.View) {
		alive, drained := viewMasks(v)
		say("VIEW %d epoch=%d dim=%d alive=%x drained=%x", *id, v.Epoch(), v.Dim, alive, drained)
	})
	say("READY %d epoch=%d", *id, e.Manager().Epoch())

	var crashed, draining, stopFlag atomic.Bool
	leave := func() {
		if draining.CompareAndSwap(false, true) {
			go e.Drain(300 * time.Millisecond)
		}
	}
	// Runtime commands from the parent (the same scanner that carried the
	// handshake — it may have buffered ahead of the PEERS line).
	go func() {
		for sc.Scan() {
			switch strings.TrimSpace(sc.Text()) {
			case "CRASH":
				crashed.Store(true)
				e.Crash()
			case "DRAIN":
				leave()
			case "FLAP":
				// One transient link flap (the grow drill's churn variant):
				// the resilient link heals within its budget, so the view
				// must NOT change — only the epoch gate is being stressed.
				e.Transport().StartChaos(transport.ChaosOptions{
					Seed:   int64(*id) + 1,
					Kinds:  []transport.ChaosKind{transport.ChaosFlap},
					Hold:   400 * time.Millisecond,
					Events: 1,
					Log:    logf,
				})
			case "STOP":
				stopFlag.Store(true)
			}
		}
	}()
	if *drainAfter > 0 {
		t := time.AfterFunc(*drainAfter, leave)
		defer t.Stop()
	}

	start := time.Now()
	st := &memberStats{}
	runErr := e.Run(func(s *comm.Session) error {
		return churnRounds(s, st, func() bool {
			return stopFlag.Load() || (*runFor > 0 && time.Since(start) > *runFor)
		})
	})

	v := e.Manager().View()
	alive, drained := viewMasks(v)
	tail := fmt.Sprintf("completed=%d vchanged=%d epoch=%d dim=%d alive=%x drained=%x",
		st.completed, st.vchanged, v.Epoch(), v.Dim, alive, drained)
	switch {
	case crashed.Load():
		say("CRASHED %d %s", *id, tail)
		return nil // a crashed rank's torn-down program is the point
	case draining.Load():
		if runErr != nil && !isExpectedMemberExit(runErr) {
			return fmt.Errorf("member: drained rank's program failed oddly: %w", runErr)
		}
		say("DRAINED %d %s", *id, tail)
		return nil
	case runErr != nil:
		return runErr
	}
	say("DONE %d %s", *id, tail)
	return nil
}

// ---- the churn drill parent ----

// finalRec is one child's parsed verdict line.
type finalRec struct {
	verb      string // DONE, CRASHED or DRAINED
	completed int64
	vchanged  int64
	epoch     uint64
	dim       int64
	alive     uint64
	drained   uint64
}

// churnWatch aggregates the children's protocol lines for the parent's
// storm scheduling (latest VIEW per node) and verdict (final lines).
type churnWatch struct {
	mu     sync.Mutex
	ready  map[int]bool
	views  map[int]finalRec   // latest VIEW per node (verb unused)
	finals map[int][]finalRec // DONE/CRASHED/DRAINED, in arrival order
}

func newChurnWatch() *churnWatch {
	return &churnWatch{
		ready:  make(map[int]bool),
		views:  make(map[int]finalRec),
		finals: make(map[int][]finalRec),
	}
}

// parseRec parses the "completed=... vchanged=... epoch=... alive=...
// drained=..." tail shared by VIEW and verdict lines (missing keys stay
// zero — VIEW lines carry no counters).
func parseRec(verb string, fields []string) finalRec {
	rec := finalRec{verb: verb}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "completed":
			rec.completed, _ = strconv.ParseInt(v, 10, 64)
		case "vchanged":
			rec.vchanged, _ = strconv.ParseInt(v, 10, 64)
		case "epoch":
			rec.epoch, _ = strconv.ParseUint(v, 10, 64)
		case "dim":
			rec.dim, _ = strconv.ParseInt(v, 10, 64)
		case "alive":
			rec.alive, _ = strconv.ParseUint(v, 16, 64)
		case "drained":
			rec.drained, _ = strconv.ParseUint(v, 16, 64)
		}
	}
	return rec
}

func (w *churnWatch) add(node int, line string) {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[1] != fmt.Sprint(node) {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch fields[0] {
	case "READY":
		w.ready[node] = true
	case "VIEW":
		w.views[node] = parseRec("VIEW", fields[2:])
	case "DONE", "CRASHED", "DRAINED":
		w.finals[node] = append(w.finals[node], parseRec(fields[0], fields[2:]))
	}
}

// waitFor polls pred (called under the watch lock) until it holds or
// the timeout expires.
func (w *churnWatch) waitFor(timeout time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		ok := pred()
		w.mu.Unlock()
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cmdChurn is the seeded elastic-membership storm: spawn a cube of
// member processes, crash one mid-traffic, join a fresh incarnation
// back into the hole, drain another, stop, and aggregate the children's
// self-verdicts. The drill fails unless every process exits clean,
// every survivor completed rounds, at least one collective was
// interrupted by a view change and retried, and every survivor's final
// view agrees: everyone alive except the drained rank.
func cmdChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	n := fs.Int("n", 2, "cube dimension (spawns 2^n member processes plus one joiner)")
	seed := fs.Int64("seed", 1, "seed for the storm's victim choices")
	attempts := fs.Int("attempts", 4, "children: reconnect attempts before a peer is declared dead")
	budget := fs.Duration("budget", 2*time.Second, "children: reconnect budget per outage — the crash-detection latency")
	transportS := fs.String("transport", "auto", "socket family the children link over: tcp, uds, or auto (same-host drill = uds)")
	verbose := fs.Bool("v", false, "children log membership diagnostics to stderr")
	fs.Parse(args)

	if *n < 2 || *n > 6 {
		return fmt.Errorf("churn: dimension %d outside 2..6 (the storm needs distinct crash and drain victims)", *n)
	}
	family := *transportS
	if family == "auto" {
		family = "uds" // the drill deploys on this host
	}
	N := 1 << uint(*n)
	childArgs := func(i int) []string {
		a := []string{"member", "-n", fmt.Sprint(*n), "-id", fmt.Sprint(i),
			"-transport", family, "-attempts", fmt.Sprint(*attempts),
			"-budget", budget.String(), "-for", "2m"}
		if *verbose {
			a = append(a, "-v")
		}
		return a
	}
	procs, peers, killAll, err := spawnCube(N, childArgs, true)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}

	w := newChurnWatch()
	var wg sync.WaitGroup
	relay := func(node int, p *cubeProc) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p.out.Scan() {
				line := p.out.Text()
				w.add(node, line)
				fmt.Printf("[node %d] %s\n", node, line)
			}
		}()
	}
	for i, p := range procs {
		relay(i, p)
	}
	fail := func(format string, a ...any) error {
		killAll()
		for i, p := range procs {
			if p.stderr != nil && p.stderr.Len() > 0 {
				fmt.Printf("---- node %d stderr ----\n%s", i, p.stderr.String())
			}
		}
		return fmt.Errorf("churn: "+format, a...)
	}
	command := func(p *cubeProc, cmd string) {
		// A write to an already-dead child just fails; the storm moves on.
		p.in.WriteString(cmd + "\n")
		p.in.Flush()
	}

	if !w.waitFor(30*time.Second, func() bool { return len(w.ready) == N }) {
		return fail("only %d/%d members became READY", len(w.ready), N)
	}
	detect := 3**budget + 20*time.Second

	// Storm step 1: crash a non-root rank mid-traffic. Survivors burn
	// their reconnect budgets, declare it dead, repair the tree, and keep
	// completing rounds on the shrunken view.
	rng := rand.New(rand.NewSource(*seed))
	crashV := 1 + rng.Intn(N-1)
	time.Sleep(300 * time.Millisecond) // let pre-churn rounds complete
	fmt.Printf("churn: crashing rank %d\n", crashV)
	command(procs[crashV], "CRASH")
	if !w.waitFor(detect, func() bool {
		v, ok := w.views[0]
		return ok && v.alive&(1<<uint(crashV)) == 0
	}) {
		return fail("rank 0 never saw the crash of rank %d", crashV)
	}
	time.Sleep(300 * time.Millisecond) // post-crash rounds on the repaired view

	// Storm step 2: a fresh incarnation joins back through the hole.
	joinPeers := append([]string(nil), peers...)
	joinPeers[crashV] = ""
	exe, err := os.Executable()
	if err != nil {
		return fail("%v", err)
	}
	fmt.Printf("churn: joining a fresh rank %d into the hole\n", crashV)
	jArgs := []string{"member", "-join", "-n", fmt.Sprint(*n), "-id", fmt.Sprint(crashV),
		"-transport", family, "-attempts", fmt.Sprint(*attempts),
		"-budget", budget.String(), "-for", "2m",
		"-peers", strings.Join(joinPeers, ",")}
	if *verbose {
		jArgs = append(jArgs, "-v")
	}
	jCmd := exec.Command(exe, jArgs...)
	joiner := &cubeProc{cmd: jCmd, stderr: &bytes.Buffer{}}
	jCmd.Stderr = joiner.stderr
	jIn, err1 := jCmd.StdinPipe()
	jOut, err2 := jCmd.StdoutPipe()
	if err1 != nil || err2 != nil {
		return fail("wiring the joiner: %v %v", err1, err2)
	}
	joiner.in = bufio.NewWriter(jIn)
	if err := jCmd.Start(); err != nil {
		return fail("starting the joiner: %v", err)
	}
	kill0 := killAll
	killAll = func() {
		kill0()
		if jCmd.Process != nil {
			jCmd.Process.Kill()
		}
	}
	joiner.out = bufio.NewScanner(jOut)
	joiner.out.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	relay(crashV, joiner)
	if !w.waitFor(30*time.Second, func() bool {
		v, ok := w.views[0]
		return ok && v.alive&(1<<uint(crashV)) != 0
	}) {
		return fail("the reborn rank %d was never admitted", crashV)
	}
	time.Sleep(300 * time.Millisecond) // post-join rounds on the regrown view

	// Storm step 3: drain another rank gracefully (Drained, not Dead).
	cands := make([]int, 0, N)
	for r := 1; r < N; r++ {
		if r != crashV {
			cands = append(cands, r)
		}
	}
	drainV := cands[rng.Intn(len(cands))]
	fmt.Printf("churn: draining rank %d\n", drainV)
	command(procs[drainV], "DRAIN")
	if !w.waitFor(detect, func() bool {
		v, ok := w.views[0]
		return ok && v.drained&(1<<uint(drainV)) != 0
	}) {
		return fail("rank 0 never saw the drain of rank %d", drainV)
	}
	time.Sleep(300 * time.Millisecond) // post-drain rounds on the final view

	// Stop: the root runs two more rounds on the final view — the
	// post-storm verified broadcast — then signs the stop round.
	command(procs[0], "STOP")

	all := append(append([]*cubeProc(nil), procs...), joiner)
	exits := make(chan error, len(all))
	for _, p := range all {
		go func(p *cubeProc) { exits <- p.cmd.Wait() }(p)
	}
	for range all {
		select {
		case err := <-exits:
			if err != nil {
				return fail("a member process exited nonzero: %v", err)
			}
		case <-time.After(90 * time.Second):
			return fail("member processes still running 90s after STOP — the drill hung")
		}
	}
	wg.Wait()

	// Verdict. Every storm victim reported the right verb; every
	// survivor's DONE agrees on the final view; rounds completed
	// everywhere; at least one collective was interrupted and retried.
	final := func(node, gen int, wantVerb string) (finalRec, error) {
		recs := w.finals[node]
		if gen >= len(recs) {
			return finalRec{}, fmt.Errorf("node %d printed no verdict line %d", node, gen)
		}
		if recs[gen].verb != wantVerb {
			return finalRec{}, fmt.Errorf("node %d verdict %d is %s, want %s", node, gen, recs[gen].verb, wantVerb)
		}
		return recs[gen], nil
	}
	var totalVC, totalRounds int64
	crashRec, err := final(crashV, 0, "CRASHED")
	if err != nil {
		return fail("%v", err)
	}
	drainRec, err := final(drainV, 0, "DRAINED")
	if err != nil {
		return fail("%v", err)
	}
	if drainRec.completed == 0 {
		return fail("the drained rank completed no rounds before leaving")
	}
	totalVC += crashRec.vchanged + drainRec.vchanged
	totalRounds += crashRec.completed + drainRec.completed

	wantAlive := (uint64(1)<<uint(N) - 1) &^ (1 << uint(drainV))
	wantDrained := uint64(1) << uint(drainV)
	survivors := []struct {
		node, gen int
	}{}
	for r := 0; r < N; r++ {
		if r == drainV {
			continue
		}
		gen := 0
		if r == crashV {
			gen = 1 // the reborn incarnation's DONE follows the CRASHED line
		}
		survivors = append(survivors, struct{ node, gen int }{r, gen})
	}
	for _, s := range survivors {
		rec, err := final(s.node, s.gen, "DONE")
		if err != nil {
			return fail("%v", err)
		}
		if rec.completed == 0 {
			return fail("survivor %d completed no rounds", s.node)
		}
		if rec.alive != wantAlive || rec.drained != wantDrained {
			return fail("survivor %d final view alive=%x drained=%x, want alive=%x drained=%x",
				s.node, rec.alive, rec.drained, wantAlive, wantDrained)
		}
		totalVC += rec.vchanged
		totalRounds += rec.completed
	}
	if totalVC == 0 {
		return fail("no collective was ever interrupted by a view change — the storm proved nothing")
	}
	fmt.Printf("churn: %d processes survived the seeded storm (crashed %d, rejoined %d, drained %d): %d round completions, %d view-change retries, final view alive=%x drained=%x\n",
		len(all), crashV, crashV, drainV, totalRounds, totalVC, wantAlive, wantDrained)
	return nil
}
