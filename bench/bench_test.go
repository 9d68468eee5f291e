package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testleak"
)

// smallRun is every workload at d=2 with 3 slices of 5 timed ops (at
// -seconds 1) and every probe run about once.
func smallRun() config {
	cfg := config{probeScale: 1e-4}
	for _, w := range workloads {
		s := *w
		s.dim = 2
		s.slices = 3
		s.ops = 5 * runSeconds
		s.warm = map[kind]int{bcastMSBT: 4, scatterBST: 4, allToAll: 2, svcMix: 12}[w.kind]
		cfg.workloads = append(cfg.workloads, &s)
	}
	return cfg
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// runOK runs the benchmark in process and returns its output lines and
// the result object of the last line.
func runOK(t *testing.T, cfg config, args ...string) ([]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("bench %v: last line is not the result object: %v", args, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("bench %v: correct=%v attempted=%d failed=%d, want a clean run\n%s",
			args, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return lines, res
}

// wantOnce checks that each name starts exactly one output line, with its
// unit, and is a key of the result object.
func wantOnce(t *testing.T, lines []string, res result, prefix string, decl []declaredMetric) {
	t.Helper()
	for _, d := range decl {
		n := 0
		for _, l := range lines {
			if f := strings.Fields(l); len(f) == 3 && f[0] == prefix+d.Name && f[2] == d.Unit {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s%s: printed on %d lines with unit %s, want 1", prefix, d.Name, n, d.Unit)
		}
		if m, ok := res.Metrics[prefix+d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s%s: missing from the result object or wrong unit (%+v)", prefix, d.Name, m)
		}
	}
}

// TestDeclarationMatches pins BENCHMARK.json to the program: the same
// workloads, metric names and units, in the same order.
func TestDeclarationMatches(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program scales op counts from %d", d.RunSeconds, runSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, program %q", i, d.Workloads[i].Name, w.name)
		}
	}
	same := func(what string, want []declaredMetric, prog []decl, bounded bool) {
		if len(want) != len(prog) {
			t.Fatalf("%s: %d declared, program reports %d", what, len(want), len(prog))
		}
		seen := map[string]bool{}
		for i, p := range prog {
			if want[i].Name != p.name || want[i].Unit != p.unit {
				t.Errorf("%s %d: declared %s [%s], program %s [%s]", what, i, want[i].Name, want[i].Unit, p.name, p.unit)
			}
			if seen[p.name] {
				t.Errorf("%s: %s listed twice", what, p.name)
			}
			seen[p.name] = true
			if (want[i].Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v, want %v", what, p.name, want[i].Bound != nil, bounded)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd, true)
	same("per_layer", d.PerLayer, perLayer, false)
}

// TestSmoke runs the whole benchmark small: every workload end to end,
// every probe, a traced slice of every workload, and the two invocations
// the driver makes.
func TestSmoke(t *testing.T) {
	testleak.Check(t)
	d := readDeclared(t)
	cfg := smallRun()

	lines, res := runOK(t, cfg, "-seconds", "1", "-seed", "7")
	for _, w := range cfg.workloads {
		wantOnce(t, lines, res, w.name+"/", d.EndToEnd)
		found := false
		for _, l := range lines {
			found = found || l == w.name+"/fail_share 0 share"
		}
		if !found {
			t.Errorf("%s: no fail_share 0 line", w.name)
		}
	}
	if want := len(cfg.workloads) * len(d.EndToEnd); len(res.Metrics) != want {
		t.Errorf("end-to-end run: %d metrics in the result object, want %d", len(res.Metrics), want)
	}

	spansFile := filepath.Join(t.TempDir(), "spans.json")
	lines, res = runOK(t, cfg, "-seconds", "1", "-trace", spansFile)
	for _, w := range cfg.workloads {
		wantOnce(t, lines, res, w.name+"/", d.PerLayer)
	}
	checkSpans(t, spansFile, cfg)

	// As the driver invokes it: bare names, exactly the declared sets.
	w := cfg.workloads[1].name
	lines, res = runOK(t, cfg, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0")
	wantOnce(t, lines, res, "", d.EndToEnd)
	if len(res.Metrics) != len(d.EndToEnd) {
		t.Errorf("--trace 0: %d metrics, want the %d end-to-end ones", len(res.Metrics), len(d.EndToEnd))
	}
	lines, res = runOK(t, cfg, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
	wantOnce(t, lines, res, "", d.PerLayer)
	if len(res.Metrics) != len(d.PerLayer) {
		t.Errorf("--trace 1: %d metrics, want the %d per-layer ones", len(res.Metrics), len(d.PerLayer))
	}
	for _, name := range []string{"budget.pred_ms", "comm.call_ms_p50", "transport.frames_per_op"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s on %s: %v, want a positive measurement", name, w, res.Metrics[name].Value)
		}
	}
}

// checkSpans reads the trace file back: every timed op of every workload
// has one op span, every rank of a collective one rank.call under it, and
// self times reconstruct.
func checkSpans(t *testing.T, path string, cfg config) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(file.Spans)
	count := map[string]int{}
	for i, s := range file.Spans {
		count[s.Workload+"/"+s.Name]++
		if s.EndNs < s.StartNs || self[i] < 0 || self[i] > s.EndNs-s.StartNs {
			t.Fatalf("span %d %+v: self time %d", i, s, self[i])
		}
		if s.Name == "op" {
			continue
		}
		if s.Parent < 0 || s.Parent >= i || file.Spans[s.Parent].Name != "op" || file.Spans[s.Parent].Op != s.Op {
			t.Fatalf("span %d %+v: parent is not its op span", i, s)
		}
	}
	for _, w := range cfg.workloads {
		ops, _ := w.opsFor(1)
		children := map[string]int{"rank.call": tracePairs * ops * w.ranks()}
		if w.kind == svcMix {
			children = map[string]int{"submit": tracePairs * ops, "wait": tracePairs * ops}
		}
		children["op"] = tracePairs * ops
		for name, want := range children {
			if got := count[w.name+"/"+name]; got != want {
				t.Errorf("%s: %d %q spans, want %d", w.name, got, name, want)
			}
		}
	}
}

// TestCorruptPayloadCounted damages one received payload per collective
// workload and expects exactly that op to be counted as failed.
func TestCorruptPayloadCounted(t *testing.T) {
	testleak.Check(t)
	for _, w := range smallRun().workloads {
		if w.kind == svcMix {
			continue // svc jobs verify themselves inside comm.JobSpec
		}
		in := newInputs(w, 1)
		in.corrupt = func(r, op int) bool { return r == 1 && op == w.warm }
		res := runSlice(w, in, w.network, w.warm, 5, nil)
		if res.err != nil || res.attempted != w.warm+5 || res.failed != 1 {
			t.Errorf("%s: attempted %d failed %d err %v, want %d attempted and the 1 corrupted op failed",
				w.name, res.attempted, res.failed, res.err, w.warm+5)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "rank.call", Parent: 0, StartNs: 10, EndNs: 60},
		{Name: "rank.call", Parent: 0, StartNs: 40, EndNs: 90},  // overlaps the first
		{Name: "rank.call", Parent: 0, StartNs: 95, EndNs: 120}, // runs past its parent
	}
	want := []int64{100 - (80 + 5), 50, 50, 25}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
}

// TestSvcTenantCap: no run may put more than svcTenantCap jobs of one
// tenant on one cluster.
func TestSvcTenantCap(t *testing.T) {
	svcW := workloads[3]
	for _, seconds := range []int{1, runSeconds, 60} {
		ops, err := svcW.opsFor(seconds)
		if err != nil || (svcW.warm+ops+svcTenants-1)/svcTenants > svcTenantCap {
			t.Errorf("-seconds %d: %d jobs per slice, err %v", seconds, ops, err)
		}
	}
	if _, err := svcW.opsFor(200); err == nil {
		t.Error("-seconds 200 goes past the per-tenant cap and was accepted")
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, fullRun, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q: want a failure and no result", code, stdout.String())
	}
}
