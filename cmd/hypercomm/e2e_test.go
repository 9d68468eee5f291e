package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildHypercomm compiles the CLI into the test's temp dir once.
func buildHypercomm(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hypercomm")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hypercomm: %v\n%s", err, out)
	}
	return bin
}

// TestLaunchEightProcessCube builds the hypercomm binary and runs
// `launch -n 3`: eight real OS processes, one cube node each, every
// link a socket. Every rank must verify the MSBT broadcast and the BST
// scatter payloads and report OK. The variants pin both socket
// families plus autotuned packet sizing end to end across process
// boundaries.
func TestLaunchEightProcessCube(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 9 processes")
	}
	bin := buildHypercomm(t)
	cases := []struct {
		name string
		args []string
	}{
		{"tcp", []string{"-transport", "tcp"}},
		{"uds", []string{"-transport", "uds"}},
		{"uds-tuned", []string{"-transport", "uds", "-autotune", "-m", "65536"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"launch", "-n", "3", "-m", "4096"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("launch: %v\n%s", err, out)
			}
			text := string(out)
			for i := 0; i < 8; i++ {
				if !strings.Contains(text, "OK "+string(rune('0'+i))+":") {
					t.Errorf("node %d never reported OK:\n%s", i, text)
				}
			}
			if !strings.Contains(text, "launch: 8 processes") {
				t.Errorf("missing launch summary:\n%s", text)
			}
		})
	}
}

// TestServeExplicitPeers exercises the two-terminal workflow in one
// test: two serve processes with fixed ports and an explicit -peers
// list, no launcher in between.
func TestServeExplicitPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 2 processes")
	}
	bin := buildHypercomm(t)
	const a0, a1 = "127.0.0.1:29480", "127.0.0.1:29481"
	peers := a0 + "," + a1
	c0 := exec.Command(bin, "serve", "-n", "1", "-id", "0", "-listen", a0, "-peers", peers)
	c1 := exec.Command(bin, "serve", "-n", "1", "-id", "1", "-listen", a1, "-peers", peers)
	if err := c0.Start(); err != nil {
		t.Fatal(err)
	}
	out1, err1 := c1.CombinedOutput()
	err0 := c0.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("serve pair failed: node0=%v node1=%v\n%s", err0, err1, out1)
	}
	if !strings.Contains(string(out1), "OK 1:") {
		t.Errorf("node 1 never reported OK:\n%s", out1)
	}
}

// TestChaosEightProcessSurvivesFaults is the multi-process soak from
// the acceptance bar: `chaos -n 3` spawns eight resilient serve
// processes (Unix-domain links — launch's same-host default), each
// running a seeded chaos agent that kills, flaps and
// delays its own live connections while lockstep MSBT broadcast +
// BST scatter/gather rounds flow. The drill itself fails unless every
// rank verified every payload AND at least one fault was actually
// injected mid-run, so a passing exit code is the whole assertion; the
// output checks below just pin the report format.
func TestChaosEightProcessSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 9 processes")
	}
	bin := buildHypercomm(t)
	out, err := exec.Command(bin, "chaos", "-n", "3", "-m", "4096",
		"-for", "1200ms", "-seed", "7", "-min-events", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("chaos drill failed: %v\n%s", err, out)
	}
	text := string(out)
	for i := 0; i < 8; i++ {
		if !strings.Contains(text, "OK "+string(rune('0'+i))+":") {
			t.Errorf("node %d never reported OK:\n%s", i, text)
		}
	}
	if !strings.Contains(text, "CHAOS ") {
		t.Errorf("no injected fault was logged:\n%s", text)
	}
	if !strings.Contains(text, "STATS ") {
		t.Errorf("children ran with -v but printed no STATS line:\n%s", text)
	}
	if !strings.Contains(text, "survived") {
		t.Errorf("missing chaos summary:\n%s", text)
	}
}

// TestJobsMultiProcessService runs the collective-as-a-service drill:
// four OS processes, one cube node each, every process running the svc
// runtime and submitting the identical 12-job 3-tenant mix. The drill
// exits nonzero unless every rank verified every job byte-exactly AND
// the per-job payload metering (aggregated from the children's STATS
// lines) covered every submitted job, so the exit code carries the
// assertion; the checks below pin the report format.
func TestJobsMultiProcessService(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 5 processes")
	}
	bin := buildHypercomm(t)
	out, err := exec.Command(bin, "jobs", "-n", "2", "-jobs", "12", "-tenants", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("jobs drill failed: %v\n%s", err, out)
	}
	text := string(out)
	for i := 0; i < 4; i++ {
		if !strings.Contains(text, "OK "+string(rune('0'+i))+": 12 jobs from 3 tenants verified") {
			t.Errorf("node %d never reported its jobs OK:\n%s", i, text)
		}
	}
	if !strings.Contains(text, "per_job=") {
		t.Errorf("no child printed per-job payload metering:\n%s", text)
	}
	if !strings.Contains(text, "per-job metering covered 12 keys") {
		t.Errorf("missing jobs summary with full metering coverage:\n%s", text)
	}
}

// TestChurnElasticStorm runs the elastic-membership drill: four member
// processes drive root-signed collective rounds while the parent's
// seeded storm crashes one mid-traffic, joins a fresh incarnation back
// into the hole, and drains another. The command exits nonzero unless
// every round either completed byte-exactly on some epoch or failed
// with the typed view-change error and was retried, at least one
// collective was actually interrupted, and every survivor agrees on
// the final view — so the exit code carries the assertion; the output
// checks pin the storm actually happened.
func TestChurnElasticStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 6 processes")
	}
	bin := buildHypercomm(t)
	out, err := exec.Command(bin, "churn", "-n", "2", "-seed", "7",
		"-budget", "1s").CombinedOutput()
	if err != nil {
		t.Fatalf("churn drill failed: %v\n%s", err, out)
	}
	text := string(out)
	for _, marker := range []string{"CRASHED ", "DRAINED ", "DONE 0 ", "survived the seeded storm"} {
		if !strings.Contains(text, marker) {
			t.Errorf("missing %q in the drill output:\n%s", marker, text)
		}
	}
}

// TestChaosKillNodeFailsFastNamingPeer is the budget-exhaustion half
// of the acceptance bar: kill one of the eight processes outright and
// require the run to FAIL fast — survivors exhaust their reconnect
// budgets and name the dead peer — rather than hang. The chaos command
// encodes exactly that verdict (it exits nonzero on a hang, a false
// OK, or an unnamed failure), so again the exit code carries the
// assertion; the wall-clock bound below catches a near-hang that
// squeaks under the command's own generous timeout.
func TestChaosKillNodeFailsFastNamingPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 9 processes")
	}
	bin := buildHypercomm(t)
	start := time.Now()
	out, err := exec.Command(bin, "chaos", "-n", "3", "-m", "4096",
		"-for", "10s", "-kill-node", "5", "-kill-after", "150ms",
		"-budget", "500ms", "-attempts", "20", "-deadline", "2s").CombinedOutput()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budget-exhaustion drill failed: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "budget-exhaustion drill passed") {
		t.Errorf("missing drill verdict:\n%s", text)
	}
	if !strings.Contains(text, "link to peer 5 failed") {
		t.Errorf("no survivor named the dead peer 5:\n%s", text)
	}
	if !strings.Contains(text, "budget exhausted") {
		t.Errorf("no survivor reported the exhausted reconnect budget:\n%s", text)
	}
	// Neighbors of the dead node escalate after one budget (~650ms from
	// start) and the cascade finishes well inside a few seconds; 15s of
	// slack still proves "fails fast" against the 10s workload window.
	if elapsed > 15*time.Second {
		t.Errorf("drill took %v — the failure did not propagate fast", elapsed)
	}
}
