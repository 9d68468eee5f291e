package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported number. The names and units here are the
// contract: BENCHMARK.json declares the same ones and bench_test.go
// asserts the two lists are equal.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// decl is a metric's declaration: its name and unit.
type decl struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports, in print
// order. fail_share is printed beside them but is not declared in
// BENCHMARK.json: it is 0 on every healthy run, and the driver reads
// failures from the attempted/failed counts of the result line instead.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kib_per_op", "KiB"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the per-layer metrics of a traced run, in print order.
// A metric that does not apply to a workload (budget.* on the in-process
// workload, svc.late_over_early on a collective) reads 0 there.
var perLayer = []decl{
	{"tree.lookup_ns", "ns"},
	{"tree.build_us", "us"},
	{"sched.plan_build_us", "us"},
	{"sched.plan_lookup_ns", "ns"},
	{"wire.encode_ns_1k", "ns"},
	{"wire.encode_ns_64k", "ns"},
	{"wire.decode_ns_1k", "ns"},
	{"wire.decode_ns_64k", "ns"},
	{"wire.frame_ns", "ns"},
	{"wire.byte_ns", "ns"},
	{"transport.tcp_rtt_us", "us"},
	{"transport.uds_rtt_us", "us"},
	{"transport.tcp_stream_mib_s", "MiB/s"},
	{"transport.uds_stream_mib_s", "MiB/s"},
	{"transport.connect_ms_d6", "ms"},
	{"transport.frames_per_op", "count"},
	{"transport.wire_overhead", "ratio"},
	{"transport.relay_factor", "ratio"},
	{"roof.tcp_rtt_us", "us"},
	{"roof.uds_rtt_us", "us"},
	{"roof.tcp_stream_mib_s", "MiB/s"},
	{"roof.uds_stream_mib_s", "MiB/s"},
	{"transport.tcp_rtt_over_roof", "ratio"},
	{"transport.uds_rtt_over_roof", "ratio"},
	{"transport.tcp_stream_over_roof", "ratio"},
	{"transport.uds_stream_over_roof", "ratio"},
	{"mpx.rtt_us", "us"},
	{"mpx.send_recv_ns", "ns"},
	{"comm.call_ms_p50", "ms"},
	{"comm.root_call_ms_p50", "ms"},
	{"comm.skew_ms_p50", "ms"},
	{"comm.inproc_op_ms", "ms"},
	{"comm.engine_share", "ratio"},
	{"svc.empty_job_us", "us"},
	{"svc.submit_us", "us"},
	{"svc.mailbox_ns", "ns"},
	{"svc.late_over_early", "ratio"},
	{"model.tau_us", "us"},
	{"model.tc_ns_per_byte", "ns"},
	{"model.pred_op_ms", "ms"},
	{"model.meas_over_pred", "ratio"},
	{"budget.pred_ms", "ms"},
	{"budget.unexplained_pct", "%"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles_per_kop", "count"},
	{"go.gc_pause_ms_per_kop", "ms"},
	{"go.goroutines_peak", "count"},
	{"host.steal_pct", "%"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
	{"trace.overhead_pct", "%"},
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqr is the distance between the first and third quartile of v.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a metric with nothing to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot is the process-wide resource reading taken at both ends of a
// slice's timed window.
type snapshot struct {
	cpu     time.Duration // getrusage user+sys
	alloc   uint64        // MemStats.TotalAlloc
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return snapshot{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   m.TotalAlloc,
		mallocs: m.Mallocs,
		numGC:   m.NumGC,
		pauseNs: m.PauseTotalNs,
	}
}

// procField returns the number after key in a /proc text file, or 0 when
// the file or the key is missing (not Linux).
func procField(path, key string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	f := bytes.Fields(b[i+len(key):])
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(f[0]), 64)
	return v
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 { return procField("/proc/self/status", "VmHWM:") / 1024 }

// resetPeakRSS restarts the high-water mark, so that a run of several
// workloads in one process reports each one's own peak. Best effort: the
// file is Linux-only.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// cpuTicks reads the host's aggregate cpu line: total and stolen ticks.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(string(f[i]), 64)
		if i <= 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
