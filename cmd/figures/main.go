// Command figures regenerates the measurement figures of Ho & Johnsson
// (ICPP 1986) on the simulated iPSC-like machine: Figure 5 (SBT broadcast
// vs packet size), Figure 6 (SBT vs MSBT broadcast), Figure 7 (MSBT/SBT
// speedup) and Figure 8 (SBT vs BST personalized communication). Series
// are printed as aligned columns and, with -chart, as ASCII plots.
//
// Usage:
//
//	figures                # all figures
//	figures -fig 7         # one figure
//	figures -chart         # also render ASCII charts
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bst"
	"repro/internal/exp"
	"repro/internal/msbt"
	"repro/internal/sbt"
	"repro/internal/trace"
	"repro/internal/tree"
	"repro/internal/vis"
)

func main() {
	fig := flag.Int("fig", 0, "figure number 1-8 (0 = all; 1-4 are structure diagrams)")
	chart := flag.Bool("chart", false, "render ASCII charts")
	dot := flag.Bool("dot", false, "emit Graphviz DOT for figures 1-4 instead of ASCII trees")
	maxDim := flag.Int("maxdim", 7, "largest cube dimension")
	flag.Parse()

	if err := render(os.Stdout, *fig, *chart, *dot, *maxDim); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// render writes figure fig (0 = all) to w, each followed by a blank line.
func render(w io.Writer, fig int, chart, dot bool, maxDim int) error {
	type job struct {
		id int
		f  func(io.Writer) error
	}
	all := []job{
		{1, func(w io.Writer) error { return figure1(w, dot) }},
		{2, func(w io.Writer) error { return figure2(w, dot) }},
		{3, func(w io.Writer) error { return figure3(w, dot) }},
		{4, func(w io.Writer) error { return figure4(w, dot) }},
		{5, func(w io.Writer) error { return figure5(w, chart, maxDim) }},
		{6, func(w io.Writer) error { return figure6(w, chart, maxDim) }},
		{7, func(w io.Writer) error { return figure7(w, chart, maxDim) }},
		{8, func(w io.Writer) error { return figure8(w, chart, maxDim) }},
	}
	var jobs []job
	for _, j := range all {
		if fig == 0 || fig == j.id {
			jobs = append(jobs, j)
		}
	}
	// Each figure renders into its own buffer on the exp worker pool (the
	// measurement figures are independent simulation sweeps); output is
	// written in figure order.
	bufs, err := exp.Parallel(jobs, 0, func(j job) (*bytes.Buffer, error) {
		var b bytes.Buffer
		if err := j.f(&b); err != nil {
			return nil, fmt.Errorf("figure %d: %w", j.id, err)
		}
		return &b, nil
	})
	if err != nil {
		return err
	}
	for _, b := range bufs {
		w.Write(b.Bytes())
		fmt.Fprintln(w)
	}
	return nil
}

func figure1(w io.Writer, dot bool) error {
	fmt.Fprintln(w, "Figure 1: the spanning binomial tree in a 4-cube (root 0000)")
	t, err := sbt.New(4, 0)
	if err != nil {
		return err
	}
	if dot {
		fmt.Fprint(w, vis.DOT("sbt4", []*tree.Tree{t}, nil))
	} else {
		fmt.Fprint(w, vis.ASCIITree(t, nil))
	}
	return nil
}

func figure2(w io.Writer, dot bool) error {
	fmt.Fprintln(w, "Figure 2: three edge-disjoint directed spanning trees (ERSBTs) in a 3-cube")
	trees, err := msbt.Trees(3, 0)
	if err != nil {
		return err
	}
	if dot {
		fmt.Fprint(w, vis.DOT("msbt3", trees, nil))
		return nil
	}
	for j, t := range trees {
		fmt.Fprintf(w, "-- ERSBT %d --\n%s", j, vis.ASCIITree(t, nil))
	}
	return nil
}

func figure3(w io.Writer, dot bool) error {
	fmt.Fprintln(w, "Figure 3: MSBT routing in a 3-cube, edges labelled by the cycle function f")
	trees, err := msbt.Trees(3, 0)
	if err != nil {
		return err
	}
	labelers := make([]vis.EdgeLabeler, len(trees))
	for j := range trees {
		labelers[j] = vis.MSBTLabeler(3, j, 0)
	}
	if dot {
		fmt.Fprint(w, vis.DOT("msbt3f", trees, labelers))
		return nil
	}
	for j, t := range trees {
		fmt.Fprintf(w, "-- ERSBT %d (input-edge cycle in brackets) --\n%s", j, vis.ASCIITree(t, labelers[j]))
	}
	return nil
}

func figure4(w io.Writer, dot bool) error {
	fmt.Fprintln(w, "Figure 4: the balanced spanning tree in a 5-cube (root 00000)")
	t, err := bst.New(5, 0)
	if err != nil {
		return err
	}
	if dot {
		fmt.Fprint(w, vis.DOT("bst5", []*tree.Tree{t}, nil))
	} else {
		fmt.Fprint(w, vis.ASCIITree(t, nil))
		fmt.Fprintln(w)
		fmt.Fprint(w, vis.SubtreeSummary(t))
	}
	return nil
}

func dimsTo(max int) []int {
	var out []int
	for n := 2; n <= max; n++ {
		out = append(out, n)
	}
	return out
}

func figure5(w io.Writer, chart bool, maxDim int) error {
	fmt.Fprintln(w, "Figure 5: SBT broadcast time (ms) vs external packet size (bytes), M = 60 KB")
	sizes := []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	series, err := exp.Figure5(dimsTo(maxDim), 60*1024, sizes)
	if err != nil {
		return err
	}
	if err := trace.Table(w, "B", series...); err != nil {
		return err
	}
	if chart {
		fmt.Fprint(w, trace.Chart(series, 64, 16))
	}
	return nil
}

func figure6(w io.Writer, chart bool, maxDim int) error {
	fmt.Fprintln(w, "Figure 6: broadcast time (ms) of 60 KB in 1 KB packets vs cube dimension")
	sbtS, msbtS, err := exp.Figure6(dimsTo(maxDim))
	if err != nil {
		return err
	}
	if err := trace.Table(w, "d", sbtS, msbtS); err != nil {
		return err
	}
	if chart {
		fmt.Fprint(w, trace.Chart([]trace.Series{sbtS, msbtS}, 48, 14))
	}
	return nil
}

func figure7(w io.Writer, chart bool, maxDim int) error {
	fmt.Fprintln(w, "Figure 7: speedup of MSBT- over SBT-based broadcasting (expected ~ log N)")
	s, err := exp.Figure7(dimsTo(maxDim))
	if err != nil {
		return err
	}
	if err := trace.Table(w, "d", s); err != nil {
		return err
	}
	if chart {
		fmt.Fprint(w, trace.Chart([]trace.Series{s}, 48, 12))
	}
	return nil
}

func figure8(w io.Writer, chart bool, maxDim int) error {
	fmt.Fprintln(w, "Figure 8: personalized communication time (ms), 1 KB per node, one-port with 20% overlap")
	sbtS, bstS, err := exp.Figure8(dimsTo(maxDim), 1024)
	if err != nil {
		return err
	}
	if err := trace.Table(w, "d", sbtS, bstS); err != nil {
		return err
	}
	if chart {
		fmt.Fprint(w, trace.Chart([]trace.Series{sbtS, bstS}, 48, 14))
	}
	return nil
}
