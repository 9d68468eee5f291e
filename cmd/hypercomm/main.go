// Command hypercomm is the umbrella CLI for the hypercube collective
// communication library: simulate timed broadcasts and scatters under any
// port model, inspect spanning-structure geometry, and verify every
// collective of the per-rank communicator end to end on the goroutine
// runtime.
//
// Subcommands:
//
//	broadcast -alg {hp|sbt|tcbt|msbt} -n DIM -m ELEMS -b PACKET -port {half|duplex|all} [-gantt]
//	scatter   -alg {sbt|bst|tcbt} -n DIM -m ELEMS -b PACKET -order {desc|df|rbf} -rr
//	tree      -alg {hp|sbt|bst|tcbt} -n DIM -s SOURCE [-render ascii|dot|hist]
//	verify    -n DIM -s SOURCE
//	serve     -n DIM -id NODE [-listen ADDR] [-peers A0,A1,...] [-m BYTES]
//	          [-transport {tcp|uds|auto}]
//	          [-resilient -attempts K -budget DUR] [-rounds R | -for DUR]
//	          [-jobs K -tenants T -jobs-seed S]
//	          [-deadline DUR] [-chaos -chaos-seed S -chaos-hold DUR] [-v]
//	launch    -n DIM [-m BYTES] [-transport {tcp|uds|auto}]
//	chaos     -n DIM [-m BYTES] [-for DUR] [-seed S] [-hold DUR]
//	          [-attempts K -budget DUR -deadline DUR] [-min-events E]
//	          [-kill-node NODE -kill-after DUR] [-transport {tcp|uds|auto}]
//	jobs      -n DIM [-jobs K -tenants T -seed S] [-resilient]
//	          [-chaos -chaos-seed S -hold DUR -min-events E]
//	          [-transport {tcp|uds|auto}]
//	member    -n DIM -id NODE [-peers A0,A1,...] [-join] [-drain-after DUR]
//	          [-for DUR] [-attempts K -budget DUR] [-transport {tcp|uds|auto}]
//	churn     -n DIM [-seed S] [-attempts K -budget DUR]
//	          [-transport {tcp|uds|auto}] [-v]
//	grow      -n DIM [-seed S] [-churn] [-attempts K -budget DUR]
//	          [-transport {tcp|uds|auto}] [-v]
//
// serve runs ONE node of the cube in this OS process, carrying every
// cube link over a socket (checksummed frames, see internal/wire);
// launch spawns a full 2^n-process cube on localhost, wires the
// processes together and verifies an MSBT broadcast and a BST scatter
// end to end. -transport picks the socket family: the default "auto"
// uses Unix-domain sockets when peers are discovered over the stdio
// handshake (launch and its drills deploy on one host, where the
// TCP/IP stack buys nothing) and TCP with an explicit -peers list that
// may span hosts. With -resilient the links self-heal: a lost connection is redialed with
// jittered exponential backoff and the frames the peer missed are
// retransmitted from a replay ring, so collectives survive
// socket kills invisibly; -v prints the per-node link-health counters
// (reconnects, retransmits, CRC drops, ...) after the run.
//
// chaos is the robustness drill built on launch: every child runs a
// seeded chaos agent that kills, flaps and delays its own live
// sockets while lockstep collective rounds flow for -for; the drill
// passes only if every rank verifies every payload AND at least
// -min-events faults were actually injected. With -kill-node the
// agents stay off and one child process is killed outright instead:
// survivors must exhaust their reconnect budgets and fail fast naming
// the dead peer — complete or fail with a name, never hang.
//
// jobs is the collective-as-a-service drill: every spawned process runs
// the multi-tenant job runtime (internal/svc) over its TCP endpoint and
// submits the identical deterministic mix of broadcast, scatter and
// allreduce jobs from several tenants; each job verifies its own
// payloads byte-exactly on every rank, and the parent cross-checks the
// per-job payload metering from the children's STATS lines. With
// -chaos the children flap their own resilient links mid-run (the
// multi-job soak).
//
// member runs one rank of an ELASTIC mesh — population changes at
// runtime (internal/member): ranks join through dead ranks' holes,
// leave gracefully by draining, or crash and get detected by the
// survivors' reconnect supervisors, while epoch-pinned collective
// rounds keep flowing over reactively repaired spanning trees (-join
// attaches a late joiner, -drain-after makes a graceful leaver). churn
// is the storm drill: a seeded crash + hole-join + drain
// sequence against a live cube of member processes, self-verdicting on
// byte-exact round delivery, typed view-change retries, and final-view
// agreement across the survivors. grow is the online-growth drill: a
// rank beyond the founding 2^n attaches mid-traffic and every survivor
// must cut over to the (n+1)-cube with no process restarted (-churn
// adds a crash and a link flap inside the cutover window).
//
// broadcast, scatter and verify accept fault-injection flags: -faults
// COUNT, -fault-kind {links|nodes|neighbor|drop|corrupt|duplicate|none}
// and -fault-seed SEED. The timed subcommands (broadcast, scatter) apply
// the plan's structural faults to the simulation and report the delivered
// fraction; verify switches to the fault-tolerant collectives (liveness
// probe, redundant multi-tree broadcast, regrafted scatter) on the
// goroutine runtime, where message faults (drop/corrupt/duplicate) are
// injected for real.
//
// Examples:
//
//	hypercomm broadcast -alg msbt -n 7 -m 61440 -b 1024 -port duplex
//	hypercomm verify -n 4 -faults 3 -fault-kind links
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"

	"repro/internal/bst"
	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/msbt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/vis"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "broadcast":
		err = cmdBroadcast(os.Args[2:])
	case "scatter":
		err = cmdScatter(os.Args[2:])
	case "tree":
		err = cmdTree(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "launch":
		err = cmdLaunch(os.Args[2:])
	case "chaos":
		err = cmdChaos(os.Args[2:])
	case "jobs":
		err = cmdJobs(os.Args[2:])
	case "member":
		err = cmdMember(os.Args[2:])
	case "churn":
		err = cmdChurn(os.Args[2:])
	case "grow":
		err = cmdGrow(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypercomm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hypercomm <broadcast|scatter|tree|verify|serve|launch|chaos|jobs|member|churn|grow> [flags]
run "hypercomm <subcommand> -h" for flags`)
}

func parseAlg(s string) (model.Algorithm, error) {
	switch strings.ToLower(s) {
	case "hp":
		return model.HP, nil
	case "sbt":
		return model.SBT, nil
	case "tcbt":
		return model.TCBT, nil
	case "msbt":
		return model.MSBT, nil
	case "bst":
		return model.BST, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

// parseSource checks a -s flag against the n-cube's addresses.
func parseSource(n, src int) (cube.NodeID, error) {
	if n < 1 || n > cube.MaxDim {
		return 0, fmt.Errorf("dimension %d out of range [1,%d]", n, cube.MaxDim)
	}
	if src < 0 || src >= 1<<uint(n) {
		return 0, fmt.Errorf("source %d outside the %d-cube (nodes 0..%d)", src, n, 1<<uint(n)-1)
	}
	return cube.NodeID(src), nil
}

// faultFlags registers the shared fault-injection flags on a FlagSet and
// returns a builder that materializes the plan (nil when fault-free).
func faultFlags(fs *flag.FlagSet) func(n int, protect cube.NodeID) (*fault.Plan, error) {
	count := fs.Int("faults", 0, "number of injected faults (0 with kind none/neighbor = fault-free)")
	kind := fs.String("fault-kind", "links", "fault scenario: links|nodes|neighbor|drop|corrupt|duplicate|none")
	seed := fs.Int64("fault-seed", 1, "seed for the deterministic fault plan")
	return func(n int, protect cube.NodeID) (*fault.Plan, error) {
		if *count <= 0 && *kind != "neighbor" {
			return nil, nil
		}
		return fault.Scenario{Kind: *kind, Count: *count, Seed: *seed}.Plan(n, protect)
	}
}

func parsePort(s string) (model.PortModel, error) {
	switch strings.ToLower(s) {
	case "half":
		return model.OneSendOrRecv, nil
	case "duplex":
		return model.OneSendAndRecv, nil
	case "all":
		return model.AllPorts, nil
	}
	return 0, fmt.Errorf("unknown port model %q (want half|duplex|all)", s)
}

func cmdBroadcast(args []string) error {
	fs := flag.NewFlagSet("broadcast", flag.ExitOnError)
	alg := fs.String("alg", "msbt", "algorithm: hp|sbt|tcbt|msbt")
	n := fs.Int("n", 7, "cube dimension")
	m := fs.Float64("m", 60*1024, "message size in elements")
	b := fs.Float64("b", 1024, "external packet size in elements")
	port := fs.String("port", "duplex", "port model: half|duplex|all")
	tau := fs.Float64("tau", exp.IPSC.Tau, "start-up time")
	tc := fs.Float64("tc", exp.IPSC.Tc, "per-element transfer time")
	ip := fs.Float64("ip", exp.IPSC.InternalPacket, "internal packet size (0 = unlimited)")
	src := fs.Int("s", 0, "source node")
	gantt := fs.Bool("gantt", false, "render a per-link Gantt timeline of the busiest links")
	plannerFn := faultFlags(fs)
	fs.Parse(args)

	a, err := parseAlg(*alg)
	if err != nil {
		return err
	}
	pm, err := parsePort(*port)
	if err != nil {
		return err
	}
	s, err := parseSource(*n, *src)
	if err != nil {
		return err
	}
	plan, err := plannerFn(*n, s)
	if err != nil {
		return err
	}
	cfg := sim.Config{Dim: *n, Model: pm, Tau: *tau, Tc: *tc, InternalPacket: *ip, Faults: plan}
	if plan != nil {
		fmt.Printf("faults: %v\n", plan)
	}
	res, err := sched.SimBroadcast(a, s, *m, *b, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%v broadcast on %d-cube (%v): %s\n", a, *n, pm, trace.Summarize(res))
	if *gantt {
		xs, err := sched.BroadcastSchedule(a, s, *m, *b, cfg)
		if err != nil {
			return err
		}
		fmt.Print(trace.Gantt(xs, res, 72, 16))
	}
	p := model.Params{N: *n, M: *m, B: *b, Tau: *tau, Tc: *tc}
	fmt.Printf("model: T=%.2f  B_opt=%.1f  T_min=%.2f\n",
		model.BroadcastTime(a, pm, p), model.BroadcastBopt(a, pm, p), model.BroadcastTmin(a, pm, p))
	return nil
}

func cmdScatter(args []string) error {
	fs := flag.NewFlagSet("scatter", flag.ExitOnError)
	alg := fs.String("alg", "bst", "algorithm: sbt|bst|tcbt")
	n := fs.Int("n", 7, "cube dimension")
	m := fs.Float64("m", 1024, "elements per destination")
	b := fs.Float64("b", 1024, "packet size in elements")
	port := fs.String("port", "half", "port model: half|duplex|all")
	orderS := fs.String("order", "df", "destination order: desc|df|rbf")
	rr := fs.Bool("rr", true, "round-robin across subtrees (false = port-oriented)")
	overlap := fs.Float64("overlap", 0.2, "send/receive overlap fraction")
	src := fs.Int("s", 0, "source node")
	plannerFn := faultFlags(fs)
	fs.Parse(args)

	a, err := parseAlg(*alg)
	if err != nil {
		return err
	}
	pm, err := parsePort(*port)
	if err != nil {
		return err
	}
	s, err := parseSource(*n, *src)
	if err != nil {
		return err
	}
	plan, err := plannerFn(*n, s)
	if err != nil {
		return err
	}
	var order sched.Order
	switch strings.ToLower(*orderS) {
	case "desc":
		order = sched.OrderDescending
	case "df":
		order = sched.OrderDF
	case "rbf":
		order = sched.OrderRBF
	default:
		return fmt.Errorf("unknown order %q", *orderS)
	}
	il := sched.PortOriented
	if *rr {
		il = sched.RoundRobin
	}
	cfg := sim.Config{
		Dim: *n, Model: pm, Tau: exp.IPSC.Tau, Tc: exp.IPSC.Tc,
		Overlap: *overlap, InternalPacket: exp.IPSC.InternalPacket, Faults: plan,
	}
	if plan != nil {
		fmt.Printf("faults: %v\n", plan)
	}
	res, err := sched.SimScatter(a, s, *m, *b, order, il, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%v scatter on %d-cube (%v, %v, %v): %s\n",
		a, *n, pm, order, il, trace.Summarize(res))
	return nil
}

func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	alg := fs.String("alg", "bst", "structure: hp|sbt|bst|tcbt")
	n := fs.Int("n", 5, "cube dimension")
	src := fs.Int("s", 0, "root node")
	render := fs.String("render", "", "render mode: ascii|dot|hist (default: stats only)")
	fs.Parse(args)

	a, err := parseAlg(*alg)
	if err != nil {
		return err
	}
	s, err := parseSource(*n, *src)
	if err != nil {
		return err
	}
	t, err := sched.TreeFor(a, *n, s)
	if err != nil {
		return err
	}
	maxFan, _ := t.MaxFanout()
	fmt.Printf("%v spanning structure of the %d-cube rooted at %d\n", a, *n, *src)
	fmt.Printf("nodes=%d height=%d max fanout=%d\n", t.Size(), t.Height(), maxFan)
	fmt.Printf("level populations: %v\n", t.LevelCounts())
	fmt.Printf("root subtree sizes: %v\n", t.RootSubtreeSizes())
	switch *render {
	case "":
	case "ascii":
		fmt.Print(vis.ASCIITree(t, nil))
	case "dot":
		fmt.Print(vis.DOT(strings.ToLower(*alg), []*tree.Tree{t}, nil))
	case "hist":
		fmt.Print(vis.LevelHistogram(t))
	default:
		return fmt.Errorf("unknown render mode %q", *render)
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	n := fs.Int("n", 5, "cube dimension")
	src := fs.Int("s", 0, "source node")
	plannerFn := faultFlags(fs)
	fs.Parse(args)

	s, err := parseSource(*n, *src)
	if err != nil {
		return err
	}
	plan, err := plannerFn(*n, s)
	if err != nil {
		return err
	}
	if plan != nil {
		return verifyFaulty(*n, s, plan)
	}
	return verifyCollectives(*n, s)
}

// verifyCollectives runs every collective of the communicator on the
// goroutine runtime, each rank its own program, and holds every rank's
// result byte for byte to a serial reference computed here. The rooted
// collectives are rooted at s.
func verifyCollectives(n int, s cube.NodeID) error {
	N := 1 << uint(n)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4096)
	rng.Read(data)
	personal := make([][]byte, N)  // rank i's payload
	pairs := make([][][]byte, N)   // pairs[i][j]: what i sends j
	prefix := make([][]byte, N)    // x_0 || ... || x_i
	sum := make([]byte, len(data)) // the byte-wise sum of every x_i
	for i := range personal {
		personal[i] = []byte(fmt.Sprintf("payload-%d", i))
		pairs[i] = make([][]byte, N)
		for j := range pairs[i] {
			pairs[i][j] = []byte(fmt.Sprintf("%d->%d", i, j))
		}
		if i > 0 {
			prefix[i] = bytes.Clone(prefix[i-1])
		}
		prefix[i] = append(prefix[i], personal[i]...)
	}
	// x_i, the contribution of rank i to Reduce and AllReduce.
	contrib := func(i int) []byte {
		x := bytes.Clone(data)
		for k := range x {
			x[k] += byte(i * k)
		}
		return x
	}
	for i := 0; i < N; i++ {
		addBytes(sum, contrib(i))
	}
	concat := func(a, b []byte) []byte { return append(a, b...) }
	one := func(b []byte) [][]byte { return [][]byte{b} }
	isRoot := func(r int) bool { return cube.NodeID(r) == s }

	collectives := []struct {
		name string
		run  func(c *comm.Comm, r int) ([][]byte, error)
		want func(r int) [][]byte
	}{
		{"Bcast", func(c *comm.Comm, r int) ([][]byte, error) {
			got, err := c.Bcast(s, data)
			return one(got), err
		}, func(int) [][]byte { return one(data) }},
		{"BcastMSBT", func(c *comm.Comm, r int) ([][]byte, error) {
			got, err := c.BcastMSBT(s, data)
			return one(got), err
		}, func(int) [][]byte { return one(data) }},
		{"Scatter", func(c *comm.Comm, r int) ([][]byte, error) {
			got, err := c.Scatter(s, personal)
			return one(got), err
		}, func(r int) [][]byte { return one(personal[r]) }},
		{"Gather", func(c *comm.Comm, r int) ([][]byte, error) {
			return c.Gather(s, personal[r])
		}, func(r int) [][]byte {
			if isRoot(r) {
				return personal
			}
			return nil
		}},
		{"Reduce", func(c *comm.Comm, r int) ([][]byte, error) {
			got, err := c.Reduce(s, contrib(r), addBytes)
			return one(got), err
		}, func(r int) [][]byte {
			if isRoot(r) {
				return one(sum)
			}
			return one(nil)
		}},
		{"AllReduce", func(c *comm.Comm, r int) ([][]byte, error) {
			got, err := c.AllReduce(contrib(r), addBytes)
			return one(got), err
		}, func(int) [][]byte { return one(sum) }},
		{"Scan", func(c *comm.Comm, r int) ([][]byte, error) {
			got, err := c.Scan(personal[r], concat)
			return one(got), err
		}, func(r int) [][]byte { return one(prefix[r]) }},
		{"AllGather", func(c *comm.Comm, r int) ([][]byte, error) {
			return c.AllGather(personal[r])
		}, func(int) [][]byte { return personal }},
		{"AllToAll", func(c *comm.Comm, r int) ([][]byte, error) {
			return c.AllToAll(pairs[r])
		}, func(r int) [][]byte {
			col := make([][]byte, N)
			for i := range col {
				col[i] = pairs[i][r]
			}
			return col
		}},
	}

	// got[k][r] is rank r's result of collective k.
	got := make([][][][]byte, len(collectives))
	for k := range got {
		got[k] = make([][][]byte, N)
	}
	err := comm.Run(n, func(c *comm.Comm) error {
		r := int(c.Rank())
		for k, col := range collectives {
			res, err := col.run(c, r)
			if err != nil {
				return fmt.Errorf("%s: %w", col.name, err)
			}
			got[k][r] = res
		}
		return nil
	})
	if err != nil {
		return err
	}
	for k, col := range collectives {
		for r := 0; r < N; r++ {
			if !slices.EqualFunc(got[k][r], col.want(r), bytes.Equal) {
				return fmt.Errorf("%s: rank %d holds wrong data", col.name, r)
			}
		}
		fmt.Printf("ok  %-10s all %d ranks match the serial reference\n", col.name, N)
	}
	fmt.Printf("all %d collectives verified (root %d)\n", len(collectives), s)
	return nil
}

// addBytes adds b into a byte by byte, wrapping: an associative and
// commutative reduction whose result is exact.
func addBytes(a, b []byte) []byte {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// verifyFaulty exercises the fault-tolerant collectives end to end on the
// goroutine runtime under the injected plan: a liveness probe, the
// redundant multi-tree broadcast (full payload down all n edge-disjoint
// ERSBTs, first checksum-valid copy accepted) and the personalized
// communication over the pruned/regrafted balanced tree.
func verifyFaulty(n int, s cube.NodeID, plan *fault.Plan) error {
	if plan.NodeDead(s) {
		return fmt.Errorf("the fault plan killed source %d; choose another source or seed", s)
	}
	fmt.Printf("faults: %v\n", plan)
	N := 1 << uint(n)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4096)
	rng.Read(data)
	personal := make([][]byte, N)
	for i := range personal {
		personal[i] = []byte(fmt.Sprintf("payload-%d", i))
	}
	live := plan.Liveness()
	bstParent := func(i cube.NodeID) (cube.NodeID, bool) { return bst.Parent(n, i, s) }
	// Reachability through live links — reported in the summary; the
	// broadcast's delivery promise is the stricter ERSBT-path test below.
	reach, err := fault.Regraft(n, s, bstParent, live, plan.LinkDead)
	if err != nil {
		return err
	}
	// ScatterFT regrafts around dead nodes only (the mask is its input),
	// so its delivery promise is membership of this tree.
	scatterTree, err := fault.Regraft(n, s, bstParent, live, nil)
	if err != nil {
		return err
	}

	type outcome struct {
		probed     int
		bcast      []byte
		bcastErr   error
		scatter    []byte
		scatterErr error
	}
	results := make([]*outcome, N)
	err = comm.RunFaulty(n, plan.Injector(), func(c *comm.Comm) error {
		var o outcome
		probed, err := c.ProbeLiveness()
		if err != nil {
			return err
		}
		o.probed = probed.LiveCount()
		o.bcast, o.bcastErr = c.BcastFT(s, data)
		o.scatter, o.scatterErr = c.ScatterFT(s, personal, live)
		results[c.Rank()] = &o
		return nil
	})
	if err != nil {
		return err
	}

	delivered := 0
	structural := plan.RuleCount() == 0
	// ScatterFT routes around dead nodes (its input is the liveness mask);
	// under dead links or message rules its failures are legitimate.
	nodeOnly := structural && len(plan.DeadLinks()) == 0
	for i := 0; i < N; i++ {
		id := cube.NodeID(i)
		o := results[i]
		if o == nil {
			if live.Alive(id) {
				return fmt.Errorf("live rank %d never ran", id)
			}
			continue
		}
		if o.bcastErr == nil {
			if !bytes.Equal(o.bcast, data) {
				return fmt.Errorf("rank %d accepted a wrong broadcast payload", id)
			}
			delivered++
		} else if structural && bcastDeliverable(n, s, id, plan) {
			return fmt.Errorf("rank %d failed the redundant broadcast despite a live ERSBT path: %v", id, o.bcastErr)
		}
		if o.scatterErr != nil && nodeOnly {
			return fmt.Errorf("rank %d scatter: %v", id, o.scatterErr)
		}
		if o.scatterErr == nil && scatterTree.Contains(id) && !bytes.Equal(o.scatter, personal[i]) {
			return fmt.Errorf("rank %d got scatter payload %q", id, o.scatter)
		}
	}
	fmt.Printf("ok  probe+bcastft+scatterft  %d/%d ranks hold the broadcast payload (%d live, %d reachable)\n",
		delivered, N, live.LiveCount(), reach.Size())
	return nil
}

// bcastDeliverable reports whether at least one of the n edge-disjoint
// ERSBT paths from source to id survives the plan — BcastFT's exact
// delivery promise. It is stricter than cube connectivity: the broadcast
// forwards along the fixed trees, so a dead relay severs its subtree in
// that tree even when the cube stays connected around it.
func bcastDeliverable(n int, s, id cube.NodeID, plan *fault.Plan) bool {
	if id == s {
		return true
	}
	for j := 0; j < n; j++ {
		i, alive := id, true
		for {
			p, ok := msbt.Parent(n, j, i, s)
			if !ok {
				break
			}
			if plan.NodeDead(p) || plan.LinkDead(p, i) {
				alive = false
				break
			}
			i = p
		}
		if alive {
			return true
		}
	}
	return false
}
