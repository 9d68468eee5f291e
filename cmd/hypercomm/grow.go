// The online-growth drill: `grow` founds a d-cube of member processes,
// lets root-signed collective rounds flow, then joins a rank BEYOND the
// founding 2^d mid-traffic — forcing every survivor to widen its link
// set and cut over to the (d+1)-cube online, with no process restarted.
// The children's round signatures are dim-stamped, so a root and a
// follower ever pinning different cube sizes in the same round turns
// into a hard byte mismatch (a nonzero child exit), not a silent wrong
// answer: the drill's clean exit IS the proof that the epoch gate never
// yielded a mixed-dimension collective. The -churn variant additionally
// crashes a rank and flaps a link during the GROW cutover window.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

func cmdGrow(args []string) error {
	fs := flag.NewFlagSet("grow", flag.ExitOnError)
	n := fs.Int("n", 2, "founding cube dimension (the drill grows the mesh to n+1)")
	seed := fs.Int64("seed", 1, "seed for the churn variant's victim choices")
	churn := fs.Bool("churn", false, "crash a rank and flap a link during the GROW cutover")
	attempts := fs.Int("attempts", 4, "children: reconnect attempts before a peer is declared dead")
	budget := fs.Duration("budget", 2*time.Second, "children: reconnect budget per outage — the crash-detection latency")
	transportS := fs.String("transport", "auto", "socket family the children link over: tcp, uds, or auto (same-host drill = uds)")
	verbose := fs.Bool("v", false, "children log membership diagnostics to stderr")
	fs.Parse(args)

	if *n < 2 || *n > 5 {
		return fmt.Errorf("grow: founding dimension %d outside 2..5 (the grown cube must fit the member cap of 6)", *n)
	}
	family := *transportS
	if family == "auto" {
		family = "uds" // the drill deploys on this host
	}
	N := 1 << uint(*n)
	grownDim := *n + 1
	joinerID := N // the first rank beyond the founding cube

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
		return fmt.Errorf("grow: %w", err)
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
		return fmt.Errorf("grow: "+format, a...)
	}
	command := func(p *cubeProc, cmd string) {
		p.in.WriteString(cmd + "\n")
		p.in.Flush()
	}

	if !w.waitFor(30*time.Second, func() bool { return len(w.ready) == N }) {
		return fail("only %d/%d members became READY", len(w.ready), N)
	}
	time.Sleep(300 * time.Millisecond) // pre-growth rounds on the founding cube

	// Victims for the churn variant, chosen up front so the storm lands
	// inside the cutover window. Rank 0 is never crashed: it is the
	// joiner's only cube neighbor, i.e. the grow-attach point.
	rng := rand.New(rand.NewSource(*seed))
	crashV, flapV := -1, -1
	if *churn {
		crashV = 1 + rng.Intn(N-1)
		for flapV < 0 || flapV == crashV {
			flapV = rng.Intn(N)
		}
	}

	// GROW: spawn a joiner born at dim n+1 whose peers list names the
	// founding ranks and leaves the rest of the grown cube as holes.
	joinStart := time.Now()
	joinPeers := make([]string, 1<<uint(grownDim))
	copy(joinPeers, peers)
	exe, err := os.Executable()
	if err != nil {
		return fail("%v", err)
	}
	fmt.Printf("grow: joining rank %d into the %d-cube mid-traffic\n", joinerID, grownDim)
	jArgs := []string{"member", "-join", "-n", fmt.Sprint(grownDim), "-id", fmt.Sprint(joinerID),
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
	relay(joinerID, joiner)

	if *churn {
		// Storm inside the cutover window: a transient flap (must heal —
		// no view change) and a real crash (must be detected).
		fmt.Printf("grow: storm during cutover — flapping a link at rank %d, crashing rank %d\n", flapV, crashV)
		command(procs[flapV], "FLAP")
		command(procs[crashV], "CRASH")
	}

	// Cutover: rank 0 must flip to the grown dimension with the joiner
	// alive. (Every other survivor's DONE line is checked for the same
	// below — the epoch gate flips them as a unit.)
	detect := 3**budget + 20*time.Second
	if !w.waitFor(detect, func() bool {
		v, ok := w.views[0]
		return ok && v.dim == int64(grownDim) && v.alive&(1<<uint(joinerID)) != 0
	}) {
		return fail("rank 0 never cut over to the %d-cube with rank %d alive", grownDim, joinerID)
	}
	attachLatency := time.Since(joinStart)
	if *churn {
		if !w.waitFor(detect, func() bool {
			v, ok := w.views[0]
			return ok && v.alive&(1<<uint(crashV)) == 0
		}) {
			return fail("rank 0 never saw the crash of rank %d", crashV)
		}
	}
	time.Sleep(500 * time.Millisecond) // post-growth rounds on the (n+1)-cube

	// Stop: the root runs two more rounds on the final view — verified,
	// dim-stamped broadcasts over the grown cube — then signs the stop.
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

	// Verdict. Every survivor — including the joiner, a rank the
	// founding cube could not even address — finished DONE on the grown
	// dimension with the same final view, and completed rounds there.
	final := func(node int, wantVerb string) (finalRec, error) {
		recs := w.finals[node]
		if len(recs) == 0 {
			return finalRec{}, fmt.Errorf("node %d printed no verdict line", node)
		}
		if recs[0].verb != wantVerb {
			return finalRec{}, fmt.Errorf("node %d verdict is %s, want %s", node, recs[0].verb, wantVerb)
		}
		return recs[0], nil
	}
	wantAlive := (uint64(1)<<uint(N) - 1) | 1<<uint(joinerID)
	if *churn {
		wantAlive &^= 1 << uint(crashV)
		if _, err := final(crashV, "CRASHED"); err != nil {
			return fail("%v", err)
		}
	}
	var totalRounds, totalVC int64
	survivors := []int{}
	for r := 0; r < N; r++ {
		if r != crashV {
			survivors = append(survivors, r)
		}
	}
	survivors = append(survivors, joinerID)
	for _, node := range survivors {
		rec, err := final(node, "DONE")
		if err != nil {
			return fail("%v", err)
		}
		if rec.completed == 0 {
			return fail("survivor %d completed no rounds", node)
		}
		if rec.dim != int64(grownDim) {
			return fail("survivor %d finished on a %d-cube, want the grown %d-cube", node, rec.dim, grownDim)
		}
		if rec.alive != wantAlive || rec.drained != 0 {
			return fail("survivor %d final view alive=%x drained=%x, want alive=%x drained=0",
				node, rec.alive, rec.drained, wantAlive)
		}
		totalRounds += rec.completed
		totalVC += rec.vchanged
	}
	if *churn && totalVC == 0 {
		return fail("no collective was ever interrupted by a view change — the storm proved nothing")
	}
	fmt.Printf("grow: rank %d attached and the mesh cut over %d->%d in %v with no process restarted: %d round completions, %d view-change retries, final view alive=%x\n",
		joinerID, *n, grownDim, attachLatency.Round(time.Millisecond), totalRounds, totalVC, wantAlive)
	return nil
}
