package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/model"
)

// TestTablesGolden pins the default output of every table (the flag
// defaults of main) byte for byte. After a deliberate change:
// go run ./cmd/tables > cmd/tables/testdata/tables.golden
func TestTablesGolden(t *testing.T) {
	var got bytes.Buffer
	p := model.Params{N: 5, M: 4096, B: 256, Tau: 100, Tc: 1}
	if err := write(&got, 0, 5, p, 20); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables output differs from testdata/tables.golden:\n%s", got.Bytes())
	}
}
