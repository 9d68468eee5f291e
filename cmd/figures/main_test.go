package main

import (
	"bytes"
	"os"
	"testing"
)

// TestFiguresGolden pins every figure byte for byte in the default,
// -chart and -dot renderings (maxdim 7, main's default). After a
// deliberate change, regenerate each file with go run ./cmd/figures and
// the same flags.
func TestFiguresGolden(t *testing.T) {
	for _, tc := range []struct {
		golden     string
		chart, dot bool
	}{
		{"testdata/figures.golden", false, false},
		{"testdata/figures_chart.golden", true, false},
		{"testdata/figures_dot.golden", false, true},
	} {
		var got bytes.Buffer
		if err := render(&got, 0, tc.chart, tc.dot, 7); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("figures output differs from %s:\n%s", tc.golden, got.Bytes())
		}
	}
}
