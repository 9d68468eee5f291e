// Command hypercomm is the umbrella CLI for the hypercube collective
// communication library: simulate timed broadcasts and scatters under any
// port model, inspect spanning-structure geometry, and verify the
// distributed implementations end to end on the goroutine runtime.
//
// Subcommands:
//
//	broadcast -alg {hp|sbt|tcbt|msbt} -n DIM -m ELEMS -b PACKET -port {half|duplex|all} [-gantt]
//	scatter   -alg {sbt|bst|tcbt} -n DIM -m ELEMS -b PACKET -order {desc|df|rbf} -rr
//	tree      -alg {hp|sbt|bst|tcbt} -n DIM -s SOURCE [-render ascii|dot|hist]
//	verify    -n DIM -s SOURCE
//	ablate    -n DIM
//	route     -n DIM -perm {bitrev|transpose|random}
//	serve     -n DIM -id NODE [-listen ADDR] [-peers A0,A1,...] [-m BYTES]
//	          [-transport {tcp|uds|auto}] [-autotune] [-naive-allnode]
//	          [-resilient -attempts K -budget DUR] [-rounds R | -for DUR]
//	          [-jobs K -tenants T -jobs-seed S]
//	          [-deadline DUR] [-chaos -chaos-seed S -chaos-hold DUR] [-v]
//	launch    -n DIM [-m BYTES] [-transport {tcp|uds|auto}] [-autotune] [-naive-allnode]
//	chaos     -n DIM [-m BYTES] [-for DUR] [-seed S] [-hold DUR]
//	          [-attempts K -budget DUR -deadline DUR] [-min-events E]
//	          [-kill-node NODE -kill-after DUR] [-transport {tcp|uds|auto}]
//	jobs      -n DIM [-jobs K -tenants T -seed S] [-resilient]
//	          [-chaos -chaos-seed S -hold DUR -min-events E]
//	          [-transport {tcp|uds|auto}]
//	member    -n DIM -id NODE [-peers A0,A1,...] [-join] [-drain-after DUR]
//	          [-for DUR] [-attempts K -budget DUR] [-transport {tcp|uds|auto}]
//	join      (member -join) attach a late joiner through a dead rank's hole
//	drain     (member -drain-after 2s) a member that leaves gracefully
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
// may span hosts. -autotune turns on model-driven packet sizing: the
// transport fits the link constants (tau, t_c) online and collectives
// split payloads at the paper's B_opt; -naive-allnode runs the all-node
// collectives without the multi-source schedule (the A/B baseline). With
// -resilient the links self-heal: a lost connection is redialed with
// jittered exponential backoff and the sequenced frames the peer
// missed are retransmitted from a replay ring, so collectives survive
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
// rounds keep flowing over reactively repaired spanning trees. join
// and drain are convenience spellings of the joiner and the graceful
// leaver. churn is the storm drill: a seeded crash + hole-join + drain
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
	"strings"

	"repro/internal/bst"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/msbt"
	"repro/internal/route"
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
	case "ablate":
		err = cmdAblate(os.Args[2:])
	case "route":
		err = cmdRoute(os.Args[2:])
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
	case "join":
		err = cmdJoin(os.Args[2:])
	case "drain":
		err = cmdDrain(os.Args[2:])
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
	fmt.Fprintln(os.Stderr, `usage: hypercomm <broadcast|scatter|tree|verify|ablate|route|serve|launch|chaos|jobs|member|join|drain|churn|grow> [flags]
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
	plan, err := plannerFn(*n, cube.NodeID(*src))
	if err != nil {
		return err
	}
	cfg := sim.Config{Dim: *n, Model: pm, Tau: *tau, Tc: *tc, InternalPacket: *ip, Faults: plan}
	if plan != nil {
		fmt.Printf("faults: %v\n", plan)
	}
	res, err := core.SimBroadcast(a, cube.NodeID(*src), *m, *b, cfg)
	if err != nil {
		return err
	}
	s := trace.Summarize(res)
	fmt.Printf("%v broadcast on %d-cube (%v): %s\n", a, *n, pm, s)
	if *gantt {
		xs, err := core.BroadcastSchedule(a, cube.NodeID(*src), *m, *b, cfg)
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
	plan, err := plannerFn(*n, cube.NodeID(*src))
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
	res, err := core.SimScatter(a, cube.NodeID(*src), *m, *b, order, il, cfg)
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
	topo, err := core.TopologyFor(a, *n, cube.NodeID(*src))
	if err != nil {
		return err
	}
	t, err := topo.Tree()
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
		fmt.Print(vis.DOT(topo.Name, []*tree.Tree{t}, nil))
	case "hist":
		fmt.Print(vis.LevelHistogram(t))
	default:
		return fmt.Errorf("unknown render mode %q", *render)
	}
	return nil
}

func cmdAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	n := fs.Int("n", 6, "cube dimension")
	fs.Parse(args)

	a, err := exp.AblateMSBTLabels(*n, 6)
	if err != nil {
		return err
	}
	fmt.Println(a)
	b, err := exp.AblateScatterOrder(*n, 4, 16)
	if err != nil {
		return err
	}
	fmt.Println(b)
	c, err := exp.AblateSBTScatterInterleave(*n, 32, 0.2)
	if err != nil {
		return err
	}
	fmt.Println(c)
	fmt.Println(exp.AblateBalance(*n))
	measured, formula, err := exp.AblatePacketSize(*n, 4096, 100, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s measured=%-9.0f formula=%-9.1f (MSBT broadcast B_opt)\n",
		"packet-size sweep vs closed form", measured, formula)
	delays, err := exp.AblateTreeChoiceBroadcast(*n)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s SBT=%d TCBT=%d MSBT=%d HP=%d (one-packet delay, steps)\n",
		"tree choice for broadcast", delays["SBT"], delays["TCBT"], delays["MSBT"], delays["HP"])
	if err := exp.EdgeDisjointnessCheck(*n, 0); err != nil {
		return err
	}
	fmt.Printf("%-34s verified for n=%d\n", "ERSBT edge-disjointness", *n)
	return nil
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	n := fs.Int("n", 10, "cube dimension (even for transpose/bit-reversal symmetry)")
	m := fs.Float64("m", 8, "message size in elements")
	permS := fs.String("perm", "bitrev", "permutation: bitrev|transpose|random")
	seed := fs.Int64("seed", 1, "random seed for Valiant intermediates / random permutation")
	fs.Parse(args)

	rng := rand.New(rand.NewSource(*seed))
	var p route.Permutation
	switch strings.ToLower(*permS) {
	case "bitrev":
		p = route.BitReversal(*n)
	case "transpose":
		var err error
		p, err = route.Transpose(*n)
		if err != nil {
			return err
		}
	case "random":
		p = route.Random(*n, rng)
	default:
		return fmt.Errorf("unknown permutation %q", *permS)
	}
	cfg := sim.Config{Dim: *n, Model: model.AllPorts, Tau: 0.01, Tc: 1}
	xe, err := route.ECube(*n, p, *m)
	if err != nil {
		return err
	}
	te, ce, err := route.Measure(cfg, xe)
	if err != nil {
		return err
	}
	xv, err := route.Valiant(*n, p, *m, rng)
	if err != nil {
		return err
	}
	tv, cv, err := route.Measure(cfg, xv)
	if err != nil {
		return err
	}
	fmt.Printf("%s permutation on %d-cube, %g elements/message:\n", *permS, *n, *m)
	fmt.Printf("  e-cube : congestion=%-4d makespan=%.2f\n", ce, te)
	fmt.Printf("  valiant: congestion=%-4d makespan=%.2f\n", cv, tv)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	n := fs.Int("n", 5, "cube dimension")
	src := fs.Int("s", 0, "source node")
	plannerFn := faultFlags(fs)
	fs.Parse(args)

	plan, err := plannerFn(*n, cube.NodeID(*src))
	if err != nil {
		return err
	}
	if plan != nil {
		return verifyFaulty(*n, cube.NodeID(*src), plan)
	}

	N := 1 << uint(*n)
	s := cube.NodeID(*src)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4096)
	rng.Read(data)

	check := func(name string, got [][]byte, want func(i int) []byte) error {
		for i, g := range got {
			if !bytes.Equal(g, want(i)) {
				return fmt.Errorf("%s: node %d holds wrong data", name, i)
			}
		}
		fmt.Printf("ok  %-14s all %d nodes verified\n", name, N)
		return nil
	}

	for _, a := range []model.Algorithm{model.HP, model.SBT, model.BST, model.TCBT} {
		topo, err := core.TopologyFor(a, *n, s)
		if err != nil {
			return err
		}
		got, err := core.Broadcast(topo, data)
		if err != nil {
			return err
		}
		if err := check("broadcast/"+a.String(), got, func(int) []byte { return data }); err != nil {
			return err
		}
	}
	got, err := core.BroadcastMSBT(*n, s, data)
	if err != nil {
		return err
	}
	if err := check("broadcast/MSBT", got, func(int) []byte { return data }); err != nil {
		return err
	}

	personal := make([][]byte, N)
	for i := range personal {
		personal[i] = []byte(fmt.Sprintf("payload-%d", i))
	}
	for _, a := range []model.Algorithm{model.SBT, model.BST} {
		topo, err := core.TopologyFor(a, *n, s)
		if err != nil {
			return err
		}
		got, err := core.Scatter(topo, personal, 4)
		if err != nil {
			return err
		}
		if err := check("scatter/"+a.String(), got, func(i int) []byte { return personal[i] }); err != nil {
			return err
		}
	}
	fmt.Println("all distributed collectives verified")
	return nil
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
		probed, err := c.ProbeLiveness(comm.FTOptions{})
		if err != nil {
			return err
		}
		o.probed = probed.LiveCount()
		o.bcast, o.bcastErr = c.BcastFT(s, data, comm.FTOptions{})
		o.scatter, o.scatterErr = c.ScatterFT(s, personal, live, comm.FTOptions{})
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
