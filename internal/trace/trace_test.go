package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func TestSummarize(t *testing.T) {
	cfg := sim.Config{Dim: 2, Model: model.AllPorts, Tau: 1, Tc: 0}
	res, err := sim.Run(cfg, []sim.Xmit{
		{From: 0, To: 1, Elems: 1, Prio: 0},
		{From: 0, To: 1, Elems: 1, Prio: 1},
		{From: 0, To: 2, Elems: 1, Prio: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(res)
	if s.Makespan != 2 || s.Steps != 2 {
		t.Errorf("makespan %f steps %d", s.Makespan, s.Steps)
	}
	if s.LinksUsed != 2 || s.Transmission != 3 {
		t.Errorf("links %d xmits %d", s.LinksUsed, s.Transmission)
	}
	if s.BusiestBusy != 2 || s.Utilization != 1 {
		t.Errorf("busiest %f util %f", s.BusiestBusy, s.Utilization)
	}
	if s.Transmitted != 3 {
		t.Errorf("transmitted %f", s.Transmitted)
	}
	if !strings.Contains(s.String(), "makespan=2.00") {
		t.Errorf("String: %s", s)
	}
}

func TestTableAligned(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, "n",
		Series{Label: "sbt", X: []float64{2, 3, 4}, Y: []float64{10, 100, 1000}},
		Series{Label: "msbt", X: []float64{2, 3, 4}, Y: []float64{5, 33.333, 250}},
	)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %q", buf.String())
	}
	if !strings.Contains(lines[0], "sbt") || !strings.Contains(lines[0], "msbt") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[3], "1000") || !strings.Contains(lines[2], "33.333") {
		t.Errorf("rows: %q", lines)
	}
	// All rows equal width (alignment).
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("misaligned row %q vs header %q", l, lines[0])
		}
	}
}

func TestTableMismatchedSeries(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, "x",
		Series{Label: "a", X: []float64{1}, Y: []float64{1}},
		Series{Label: "b", X: []float64{1, 2}, Y: []float64{1, 2}},
	)
	if err == nil {
		t.Error("mismatched series accepted")
	}
	if err := Table(&buf, "x"); err != nil {
		t.Error("empty series should be a no-op")
	}
}

func TestChart(t *testing.T) {
	out := Chart([]Series{
		{Label: "linear", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}},
		{Label: "flat", X: []float64{0, 1, 2, 3}, Y: []float64{1, 1, 1, 1}},
	}, 20, 8)
	if !strings.Contains(out, "linear") || !strings.Contains(out, "flat") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("marks missing:\n%s", out)
	}
	if Chart(nil, 10, 5) != "(no data)\n" {
		t.Error("empty chart")
	}
	// Degenerate ranges must not divide by zero.
	one := Chart([]Series{{Label: "pt", X: []float64{5}, Y: []float64{7}}}, 10, 5)
	if !strings.Contains(one, "pt") {
		t.Error("single point chart")
	}
}

func TestGantt(t *testing.T) {
	cfg := sim.Config{Dim: 2, Model: model.OneSendAndRecv, Tau: 1, Tc: 0}
	xs := []sim.Xmit{
		{From: 0, To: 1, Elems: 1, Prio: 0},
		{From: 1, To: 3, Elems: 1, Prio: 1, Deps: []int{0}},
		{From: 0, To: 1, Elems: 1, Prio: 2},
	}
	res, err := sim.Run(cfg, xs)
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(xs, res, 20, 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 links
		t.Fatalf("gantt:\n%s", out)
	}
	// The 0->1 link (2 transmissions) is busiest and listed first.
	if !strings.Contains(lines[1], "0->1") {
		t.Errorf("busiest link not first:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("no occupancy marks:\n%s", out)
	}
	// Row cap respected.
	capped := Gantt(xs, res, 20, 1)
	if got := len(strings.Split(strings.TrimRight(capped, "\n"), "\n")); got != 2 {
		t.Errorf("maxRows ignored: %d lines", got)
	}
	if Gantt(nil, res, 20, 0) != "(no transmissions)\n" {
		t.Error("empty gantt")
	}
}

func TestFormatNum(t *testing.T) {
	if formatNum(3) != "3" {
		t.Errorf("%q", formatNum(3))
	}
	if formatNum(3.5) != "3.500" {
		t.Errorf("%q", formatNum(3.5))
	}
}
