// Command bench is the repository's benchmark: four fixed workloads, the
// same end-to-end metrics on each, per-layer probes and a traced run.
// README.md beside it defines every workload and metric; BENCHMARK.json
// at the root of the repository declares the names, units and regression
// bounds.
//
//	go run -C bench .                        all four workloads, end to end
//	go run -C bench . -workload NAME         one workload
//	go run -C bench . -probes                the layer probes alone
//	go run -C bench . -trace spans.json      probes, then one traced slice per workload
//	go run -C bench . -workload NAME -trace 1    the per-layer metrics of one workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/model"
)

// result is the machine-readable object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the shape of a run. main always uses fullRun; the smoke test
// shrinks it.
type config struct {
	workloads  []*workload
	probeScale float64 // multiplies the probes' iteration counts
}

var fullRun = config{workloads, 1}

func main() { os.Exit(run(os.Args[1:], fullRun, os.Stdout, os.Stderr)) }

func run(args []string, cfg config, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: payload bytes, root order, svc job mix")
	seconds := fs.Int("seconds", runSeconds, "length of a run; the fixed per-slice op counts scale with seconds/25")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced run that prints the per-layer metrics; FILE: the same, and write the spans to FILE")
	probesOnly := fs.Bool("probes", false, "run only the layer probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	selected := cfg.workloads
	if *name != "" {
		selected = nil
		for _, w := range cfg.workloads {
			if w.name == *name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		// The driver allows one invocation 180 s; a hung collective must
		// not outlive that.
		watchdog := time.AfterFunc(175*time.Second, func() {
			fmt.Fprintln(stderr, "bench: still running after 175 s; giving up")
			os.Exit(3)
		})
		defer watchdog.Stop()
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	defer localTemp()()
	fmt.Fprintf(stdout, "# bench: %s %s/%s, host.nproc %d, host.gomaxprocs %d, loopback-only traffic, seed %d, %d s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), procs, *seed, *seconds)
	opsOf := map[*workload]int{}
	for _, w := range selected {
		ops, err := w.opsFor(*seconds)
		if err != nil {
			return fail(err)
		}
		opsOf[w] = ops
		fmt.Fprintf(stdout, "# %s: %d ranks, %d slices x (%d warm-up + %d timed ops), %d final-destination bytes/op\n",
			w.name, w.ranks(), w.slices, w.warm, ops, w.meanDestBytes(*seed, ops))
	}

	out := result{Correct: true, Metrics: map[string]metric{}}
	emit := func(prefix string, decls []decl, vals map[string]float64) {
		for _, d := range decls {
			fmt.Fprintf(stdout, "%s%s %.6g %s\n", prefix, d.name, vals[d.name], d.unit)
			out.Metrics[prefix+d.name] = metric{vals[d.name], d.unit}
		}
	}
	note := func(o outcome) {
		out.Attempted += o.attempted
		out.Failed += o.failed
		if o.failed > 0 || o.err != nil {
			out.Correct = false
		}
		if o.err != nil {
			fmt.Fprintln(stderr, "bench:", o.err)
		}
	}
	// One workload: bare metric names, as the driver reads them. Several:
	// workload/metric.
	prefix := func(w *workload) string {
		if len(selected) == 1 {
			return ""
		}
		return w.name + "/"
	}

	switch {
	case *probesOnly:
		vals, err := runProbes(cfg.probeScale)
		if err != nil {
			return fail(err)
		}
		var probed []decl
		for _, d := range perLayer {
			if _, ok := vals[d.name]; ok {
				probed = append(probed, d)
			}
		}
		emit("", probed, vals)
		out.Attempted = len(probed)

	case *trace != "0":
		probes, err := runProbes(cfg.probeScale)
		if err != nil {
			return fail(err)
		}
		rec := newRecorder()
		for _, w := range selected {
			tr := runTraced(w, *seed, opsOf[w], probes, rec)
			note(tr)
			emit(prefix(w), perLayer, tr.values)
		}
		for name, self := range selfByName(rec.spans) {
			fmt.Fprintf(stdout, "# trace: median self time of %q spans %.4g ms\n", name, self)
		}
		if *trace != "1" {
			if err := rec.write(*trace); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "# trace: %d spans written to %s\n", len(rec.spans), *trace)
		}

	default:
		for _, w := range selected {
			ops := opsOf[w]
			if len(selected) > 1 {
				resetPeakRSS()
			}
			e, err := runEndToEnd(w, newInputs(w, *seed), ops)
			if err != nil {
				return fail(err)
			}
			note(e.outcome)
			emit(prefix(w), endToEnd, e.values)
			// Beside each declared value: the slices' spread, the slice
			// values, and the same as measured, before it was brought to
			// reference host speed.
			fmt.Fprintf(stdout, "%shost.slowdown %.6g ratio\n", prefix(w), e.values["host.slowdown"])
			for _, d := range append([]decl{{"host.slowdown", "ratio"}}, endToEnd...) {
				if v, ok := e.perSlice[d.name]; ok {
					fmt.Fprintf(stdout, "%s%s.iqr %.6g %s\n", prefix(w), d.name, iqr(v), d.unit)
					fmt.Fprintf(stdout, "# %s%s by slice: %.5g\n", prefix(w), d.name, v)
				}
				if v, ok := e.rawPerSlice[d.name]; ok {
					fmt.Fprintf(stdout, "%s%s.raw %.6g %s\n", prefix(w), d.name, median(v), d.unit)
					fmt.Fprintf(stdout, "# %s%s.raw by slice: %.5g\n", prefix(w), d.name, v)
				}
			}
			fmt.Fprintf(stdout, "%sfail_share %.6g share\n", prefix(w), ratio(float64(e.failed), float64(e.attempted)))
			fmt.Fprintf(stdout, "%sderived.goodput_mib_s %.6g MiB/s\n", prefix(w),
				e.values["ops_per_s"]*float64(w.meanDestBytes(*seed, ops))/(1<<20))
		}
	}

	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// localTemp points the process's temp directory into the checkout, so that
// Unix-domain socket files are not written outside it, and returns the
// clean-up. Socket paths are limited to about 100 bytes: under a deep
// checkout the system default stays.
func localTemp() func() {
	cwd, err := os.Getwd()
	if err != nil {
		return func() {}
	}
	root := cwd
	if filepath.Base(cwd) == "bench" {
		root = filepath.Dir(cwd)
	}
	dir := filepath.Join(root, ".bench_build", "tmp")
	if len(dir) > 64 || os.MkdirAll(dir, 0o755) != nil {
		return func() {}
	}
	old, had := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", dir)
	return func() {
		os.RemoveAll(dir)
		if had {
			os.Setenv("TMPDIR", old)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}
}

// meanDestBytes is the mean final-destination payload of the timed ops
// of one slice: a constant of the workload and the seed.
func (w *workload) meanDestBytes(seed int64, ops int) int {
	sum := 0
	for i := w.warm; i < w.warm+ops; i++ {
		sum += w.destBytes(seed, i)
	}
	return sum / ops
}

// outcome is what a run of one workload reports: its metrics by name and
// the count of its ops.
type outcome struct {
	values            map[string]float64
	attempted, failed int
	err               error // first error of a slice; the run went on
}

// take adds one slice's op counts and passes the slice on.
func (o *outcome) take(w *workload, res sliceResult) sliceResult {
	o.attempted += res.attempted
	o.failed += res.failed
	if o.err == nil && res.err != nil {
		o.err = fmt.Errorf("%s: %w", w.name, res.err)
	}
	return res
}

// e2e is one end-to-end run of a workload: per metric the value of
// every slice, and the run's value, their median. Timings are at
// reference host speed; rawPerSlice keeps them as measured.
type e2e struct {
	outcome
	perSlice, rawPerSlice map[string][]float64
}

// sliceValues turns one slice's measurements into its end-to-end values.
func sliceValues(res *sliceResult) map[string]float64 {
	lat := sortedCopy(res.latMs)
	n := float64(res.ops())
	return map[string]float64{
		"setup_s":          res.setup.Seconds(),
		"op_p50_ms":        quantile(lat, 0.5),
		"op_p90_ms":        quantile(lat, 0.9),
		"ops_per_s":        ratio(n, res.wall.Seconds()),
		"cpu_ms_per_op":    ratio(ms(res.end.cpu-res.begin.cpu), n),
		"alloc_kib_per_op": ratio(float64(res.end.alloc-res.begin.alloc)/1024, n),
	}
}

// atReferenceSpeed converts a slice value measured while the host ran
// slow times slower than the reference: times shrink, rates grow, sizes
// stay.
func atReferenceSpeed(name string, v, slow float64) float64 {
	switch name {
	case "alloc_kib_per_op":
		return v
	case "ops_per_s":
		return v * slow
	}
	return v / slow
}

// runEndToEnd runs w's slices with a calibration before and after each.
// The error is the calibrator's; a failing slice is reported in e.err.
func runEndToEnd(w *workload, in *inputs, ops int) (e2e, error) {
	e := e2e{outcome{values: map[string]float64{}}, map[string][]float64{}, map[string][]float64{}}
	cal, err := newCalibrator(runtime.GOMAXPROCS(0))
	if err != nil {
		return e, err
	}
	defer cal.close()
	before, err := cal.run()
	if err != nil {
		return e, err
	}
	for s := 0; s < w.slices; s++ {
		res := e.take(w, runSlice(w, in, w.network, w.warm, ops, nil))
		after, err := cal.run()
		if err != nil {
			return e, err
		}
		slow := ms(before+after) / 2 / calRefMs
		before = after
		e.perSlice["host.slowdown"] = append(e.perSlice["host.slowdown"], slow)
		for k, v := range sliceValues(&res) {
			e.rawPerSlice[k] = append(e.rawPerSlice[k], v)
			e.perSlice[k] = append(e.perSlice[k], atReferenceSpeed(k, v, slow))
		}
	}
	for k, v := range e.perSlice {
		e.values[k] = median(v)
	}
	e.values["peak_rss_mib"] = peakRSSMiB()
	return e, nil
}

// tracePairs is how many untraced/traced slice pairs a traced run makes.
const tracePairs = 3

// runTraced measures w's per-layer metrics: pairs of an untraced and a
// traced slice (their op_p50_ms difference is the tracing overhead) and,
// for a socket workload, the same ops on the in-process transport. probes
// are the workload-independent probe results, copied in.
func runTraced(w *workload, seed int64, ops int, probes map[string]float64, rec *recorder) outcome {
	t := outcome{values: map[string]float64{}}
	for _, d := range perLayer {
		t.values[d.name] = probes[d.name]
	}
	in := newInputs(w, seed)
	total0, steal0 := cpuTicks()
	take := func(res sliceResult) sliceResult { return t.take(w, res) }
	// Untraced and traced slices alternate, so that host drift falls on
	// both alike; the detailed readings come from the last pair.
	var plain, withSpans sliceResult
	var p50s, overheads, calls, rootCalls, skews []float64
	for i := 0; i < tracePairs; i++ {
		plain = take(runSlice(w, in, w.network, w.warm, ops, nil))
		withSpans = take(runSlice(w, in, w.network, w.warm, ops, rec))
		p := median(plain.latMs)
		p50s = append(p50s, p)
		overheads = append(overheads, 100*ratio(median(withSpans.latMs)-p, p))
		calls = append(calls, withSpans.callMs...)
		rootCalls = append(rootCalls, withSpans.rootCallMs...)
		skews = append(skews, withSpans.skewMs...)
	}
	inproc := plain
	if w.network != "" {
		inproc = take(runSlice(w, in, "", w.warm, ops, nil))
	}
	total1, steal1 := cpuTicks()

	v := t.values
	p50 := median(p50s)
	n := float64(withSpans.ops())
	v["trace.overhead_pct"] = median(overheads)
	v["comm.call_ms_p50"] = median(calls)
	v["comm.root_call_ms_p50"] = median(rootCalls)
	v["comm.skew_ms_p50"] = median(skews)
	v["comm.inproc_op_ms"] = median(inproc.latMs)
	v["comm.engine_share"] = ratio(v["comm.inproc_op_ms"], p50)
	v["go.allocs_per_op"] = ratio(float64(withSpans.end.mallocs-withSpans.begin.mallocs), n)
	v["go.gc_cycles_per_kop"] = 1000 * ratio(float64(withSpans.end.numGC-withSpans.begin.numGC), n)
	v["go.gc_pause_ms_per_kop"] = 1000 * ratio(float64(withSpans.end.pauseNs-withSpans.begin.pauseNs)/1e6, n)
	v["go.goroutines_peak"] = float64(withSpans.goroutines)
	v["host.steal_pct"] = 100 * ratio(steal1-steal0, total1-total0)
	v["host.nproc"] = float64(runtime.NumCPU())
	v["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	if w.network != "" {
		// Transport counters cover the whole slice, warm-up included.
		allOps := w.warm + ops
		dest := 0
		for i := 0; i < allOps; i++ {
			dest += w.destBytes(seed, i)
		}
		st := plain.stats
		v["transport.frames_per_op"] = ratio(float64(st.FramesSent), float64(allOps))
		v["transport.wire_overhead"] = ratio(float64(st.BytesSent), float64(st.PayloadDelivered))
		v["transport.relay_factor"] = ratio(float64(st.PayloadDelivered), float64(dest))
	}
	if w.kind == svcMix {
		v["svc.late_over_early"] = lateOverEarly(withSpans.doneAt)
	}
	if pred, ok := paperModel(w, plain.tau, plain.tc); ok {
		v["model.tau_us"] = plain.tau * 1e6
		v["model.tc_ns_per_byte"] = plain.tc * 1e9
		v["model.pred_op_ms"] = pred * 1e3
		v["model.meas_over_pred"] = ratio(p50, pred*1e3)
	}
	// The budget: what the op costs in process, plus the paper's
	// all-port time for the tree at the per-frame and per-byte cost the
	// transport probes measured on an idle link.
	family := map[string]string{"tcp": "tcp", "unix": "uds"}[w.network]
	tau := probes["transport."+family+"_rtt_us"] / 2 * 1e-6
	tc := ratio(1, probes["transport."+family+"_stream_mib_s"]*(1<<20))
	if link, ok := paperModel(w, tau, tc); ok {
		v["budget.pred_ms"] = v["comm.inproc_op_ms"] + link*1e3
		v["budget.unexplained_pct"] = 100 * ratio(p50-v["budget.pred_ms"], p50)
	}
	return t
}

// paperModel is the paper's all-port time in seconds for w's tree at
// per-frame cost tau and per-byte cost tc: MSBT broadcast with one packet
// per tree, (1 + n)(tau + M/n tc), and level-by-level BST scatter,
// n tau + (N-1)/n M tc. ok is false where the paper has no formula for
// the workload or the costs are unknown.
func paperModel(w *workload, tau, tc float64) (seconds float64, ok bool) {
	if tau == 0 && tc == 0 {
		return 0, false
	}
	p := model.Params{N: w.dim, M: float64(w.size), Tau: tau, Tc: tc}
	switch w.kind {
	case bcastMSBT:
		p.B = p.M / float64(w.dim)
		return model.BroadcastTime(model.MSBT, model.AllPorts, p), true
	case scatterBST:
		p.B = p.M * p.Nodes() // every bundle fits one packet
		return model.ScatterTime(model.BST, model.AllPorts, p), true
	}
	return 0, false
}

// lateOverEarly is the job rate over the last tenth of the completions
// divided by the rate over the first tenth.
func lateOverEarly(doneAt []time.Duration) float64 {
	d := append([]time.Duration(nil), doneAt...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	tenth := len(d) / 10
	if tenth == 0 {
		return 0
	}
	early := d[tenth-1]
	late := d[len(d)-1] - d[len(d)-1-tenth]
	return ratio(early.Seconds(), late.Seconds())
}
