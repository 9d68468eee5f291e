package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGenerateMatchesExperimentsMD regenerates EXPERIMENTS.md with main's
// default flags and requires the committed copy to match it byte for
// byte: a change that moves any table, figure or sweep of the paper
// reproduction must regenerate the file (go run ./cmd/experiments).
func TestGenerateMatchesExperimentsMD(t *testing.T) {
	var got bytes.Buffer
	if err := generate(&got, degradationConfig{max: 8, seed: 1, kind: "links"}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("EXPERIMENTS.md line %d differs:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("EXPERIMENTS.md differs in length: %d lines generated, %d committed", len(gl), len(wl))
	}
}
