// Command tables regenerates the six tables of Ho & Johnsson (ICPP 1986).
//
// Usage:
//
//	tables              # print all tables
//	tables -table 5     # print one table
//	tables -n 7         # cube dimension for tables 1, 2, 4 (default 5)
//	tables -m 4096 -b 256 -tau 100 -tc 1   # cost parameters for tables 3, 6
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/exp"
	"repro/internal/model"
)

func main() {
	table := flag.Int("table", 0, "table number 1-6 (0 = all)")
	n := flag.Int("n", 5, "cube dimension for tables 1, 2, 4")
	m := flag.Float64("m", 4096, "elements per destination (tables 3, 6)")
	b := flag.Float64("b", 256, "maximum packet size in elements (table 3)")
	tau := flag.Float64("tau", 100, "start-up time")
	tc := flag.Float64("tc", 1, "transfer time per element")
	t5max := flag.Int("t5max", 20, "largest dimension for table 5")
	flag.Parse()

	p := model.Params{N: *n, M: *m, B: *b, Tau: *tau, Tc: *tc}
	if err := write(os.Stdout, *table, *n, p, *t5max); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// write prints table id (0 = all) to w, each followed by a blank line:
// n is the cube dimension of tables 1, 2 and 4, p the cost parameters of
// tables 3 and 6, and t5max the largest dimension of table 5.
func write(w io.Writer, id, n int, p model.Params, t5max int) error {
	tables := []func() error{
		func() error { return table1(w, n) },
		func() error { return table2(w, n) },
		func() error { return table3(w, p) },
		func() error { return table4(w, n) },
		func() error { table5(w, t5max); return nil },
		func() error { return table6(w, p) },
	}
	for i, f := range tables {
		if id != 0 && id != i+1 {
			continue
		}
		if err := f(); err != nil {
			return fmt.Errorf("table %d: %w", i+1, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func table1(w io.Writer, n int) error {
	rows, err := exp.Table1(n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1: propagation delays (routing steps), n = %d\n", n)
	fmt.Fprintf(w, "%-6s %-12s %10s %10s\n", "alg", "port model", "paper", "simulated")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-12s %10d %10d\n", r.Alg, r.Port, r.Predicted, r.Simulated)
	}
	return nil
}

func table2(w io.Writer, n int) error {
	rows, err := exp.Table2(n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2: cycles per distinct packet, n = %d\n", n)
	fmt.Fprintf(w, "%-6s %-12s %10s %10s\n", "alg", "port model", "paper", "simulated")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-12s %10.3f %10.3f\n", r.Alg, r.Port, r.Predicted, r.Simulated)
	}
	return nil
}

func table3(w io.Writer, p model.Params) error {
	rows, err := exp.Table3(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 3: broadcast complexity at n=%d M=%.0f B=%.0f tau=%.0f tc=%.2f\n",
		p.N, p.M, p.B, p.Tau, p.Tc)
	fmt.Fprintf(w, "%-6s %-12s %12s %12s %12s %12s\n", "alg", "port model", "T(B)", "B_opt", "T_min", "simulated")
	for _, r := range rows {
		simCol := "-"
		if !math.IsNaN(r.Simulated) {
			simCol = fmt.Sprintf("%.1f", r.Simulated)
		}
		fmt.Fprintf(w, "%-6s %-12s %12.1f %12.1f %12.1f %12s\n", r.Alg, r.Port, r.T, r.Bopt, r.Tmin, simCol)
	}
	return nil
}

func table4(w io.Writer, n int) error {
	rows, err := exp.Table4(n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 4: broadcast complexity relative to MSBT, n = %d\n", n)
	fmt.Fprintf(w, "%-6s %-12s %-26s %10s %10s\n", "alg", "port model", "regime", "paper", "simulated")
	for _, r := range rows {
		simCol := "-"
		if !math.IsNaN(r.Simulated) {
			simCol = fmt.Sprintf("%.2f", r.Simulated)
		}
		fmt.Fprintf(w, "%-6s %-12s %-26s %10.2f %10s\n", r.Alg, r.Port, r.Regime, r.Predicted, simCol)
	}
	return nil
}

func table5(w io.Writer, max int) {
	fmt.Fprintln(w, "Table 5: BST maximum subtree sizes vs (N-1)/log N")
	fmt.Fprintf(w, "%3s %10s %12s %7s %10s %9s\n", "n", "BST(max)", "(N-1)/logN", "ratio", "BST(min)", "cyclics")
	for _, r := range exp.Table5(2, max) {
		fmt.Fprintf(w, "%3d %10d %12.2f %7.2f %10d %9d\n", r.N, r.BSTMax, r.Ideal, r.Ratio, r.BSTMin, r.Cyclics)
	}
}

func table6(w io.Writer, p model.Params) error {
	rows, err := exp.Table6(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 6: personalized communication at n=%d M=%.0f tau=%.0f tc=%.2f\n",
		p.N, p.M, p.Tau, p.Tc)
	fmt.Fprintf(w, "%-6s %-12s %12s %12s\n", "alg", "port model", "T_min", "simulated")
	for _, r := range rows {
		simCol := "-"
		if !math.IsNaN(r.Simulated) {
			simCol = fmt.Sprintf("%.1f", r.Simulated)
		}
		fmt.Fprintf(w, "%-6s %-12s %12.1f %12s\n", r.Alg, r.Port, r.Tmin, simCol)
	}
	return nil
}
