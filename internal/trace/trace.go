// Package trace turns raw simulation results into the summaries, series
// and terminal renderings used by the table/figure harnesses: link
// utilization, step timelines, aligned-column series output and a small
// dependency-free ASCII chart for eyeballing the figures in a terminal.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/cube"
	"repro/internal/sim"
)

// Summary condenses a simulation run.
type Summary struct {
	Makespan     float64
	Steps        int     // routing steps, when transmissions were uniform
	Transmitted  float64 // total element-time volume moved (sum of link busy)
	LinksUsed    int
	BusiestBusy  float64 // busy time of the most loaded directed link
	Utilization  float64 // BusiestBusy / Makespan: bottleneck link utilization
	Transmission int     // number of transmissions scheduled
	Delivered    int     // transmissions that completed (== Transmission when fault-free)
	Lost         int     // transmissions severed by the fault plan
}

// DeliveredFraction is Delivered over Transmission (1 for an empty run).
func (s Summary) DeliveredFraction() float64 {
	if s.Transmission == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Transmission)
}

// Summarize extracts a Summary from a simulation result.
func Summarize(res *sim.Result) Summary {
	s := Summary{
		Makespan:     res.Makespan,
		Steps:        res.Steps,
		LinksUsed:    len(res.LinkBusy),
		Transmission: len(res.Finish),
		Delivered:    len(res.Finish),
	}
	if res.Lost != nil {
		s.Delivered = res.Delivered
		s.Lost = s.Transmission - s.Delivered
	}
	for _, b := range res.LinkBusy {
		s.Transmitted += b
		if b > s.BusiestBusy {
			s.BusiestBusy = b
		}
	}
	if res.Makespan > 0 {
		s.Utilization = s.BusiestBusy / res.Makespan
	}
	return s
}

func (s Summary) String() string {
	out := fmt.Sprintf("makespan=%.2f steps=%d links=%d busiest=%.2f util=%.0f%% xmits=%d",
		s.Makespan, s.Steps, s.LinksUsed, s.BusiestBusy, 100*s.Utilization, s.Transmission)
	if s.Lost > 0 {
		out += fmt.Sprintf(" delivered=%d/%d (%.0f%%)", s.Delivered, s.Transmission, 100*s.DeliveredFraction())
	}
	return out
}

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X, Y  []float64
}

// Table writes series as aligned columns: the shared X column followed by
// one Y column per series. All series must share the same X values.
func Table(w io.Writer, xLabel string, series ...Series) error {
	if len(series) == 0 {
		return nil
	}
	for _, s := range series {
		if len(s.X) != len(series[0].X) {
			return fmt.Errorf("trace: series %q has %d points, want %d", s.Label, len(s.X), len(series[0].X))
		}
	}
	headers := make([]string, 0, len(series)+1)
	headers = append(headers, xLabel)
	for _, s := range series {
		headers = append(headers, s.Label)
	}
	rows := [][]string{headers}
	for i := range series[0].X {
		row := []string{formatNum(series[0].X[i])}
		for _, s := range series {
			row = append(row, formatNum(s.Y[i]))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	return nil
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// writeAligned prints rows with columns padded to equal width.
func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for c, cell := range r {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, r := range rows {
		parts := make([]string, len(r))
		for c, cell := range r {
			parts[c] = fmt.Sprintf("%*s", widths[c], cell)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
}

// Gantt renders per-link transmission timelines from a simulation run:
// one row per directed link (busiest first, at most maxRows rows), time
// scaled to width columns, '#' marking occupancy. It makes pipelining
// and port-contention patterns visible at a glance.
func Gantt(xs []sim.Xmit, res *sim.Result, width, maxRows int) string {
	if len(xs) == 0 || res.Makespan <= 0 {
		return "(no transmissions)\n"
	}
	if width < 10 {
		width = 10
	}
	type row struct {
		edge  cube.Edge
		spans [][2]float64
		busy  float64
	}
	byLink := map[cube.Edge]*row{}
	for i, x := range xs {
		if math.IsNaN(res.Start[i]) {
			continue // lost to a fault plan: never occupied the link
		}
		k := cube.Edge{From: x.From, To: x.To}
		r := byLink[k]
		if r == nil {
			r = &row{edge: k}
			byLink[k] = r
		}
		r.spans = append(r.spans, [2]float64{res.Start[i], res.Finish[i]})
		r.busy += res.Finish[i] - res.Start[i]
	}
	rows := make([]*row, 0, len(byLink))
	for _, r := range byLink {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].busy != rows[b].busy {
			return rows[a].busy > rows[b].busy
		}
		if rows[a].edge.From != rows[b].edge.From {
			return rows[a].edge.From < rows[b].edge.From
		}
		return rows[a].edge.To < rows[b].edge.To
	})
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %.2f (%d busiest of %d links)\n", res.Makespan, len(rows), len(byLink))
	for _, r := range rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, sp := range r.spans {
			lo := int(sp[0] / res.Makespan * float64(width))
			hi := int(sp[1] / res.Makespan * float64(width))
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				line[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%4d->%-4d |%s| %.1f\n", r.edge.From, r.edge.To, line, r.busy)
	}
	return b.String()
}

// Chart renders series as a crude ASCII scatter plot (linear axes), good
// enough to eyeball the shape of a figure in a terminal. Each series is
// drawn with its own rune, first-come-first-kept on collisions.
func Chart(series []Series, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	marks := []rune("*o+x#@%&")
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			c := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			if grid[r][c] == ' ' {
				grid[r][c] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", formatNum(maxY))
	for _, row := range grid {
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%s%s%s\n", formatNum(minY), strings.Repeat("-", width-len(formatNum(minX))), formatNum(maxX))
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", marks[si%len(marks)], s.Label)
	}
	return b.String()
}
