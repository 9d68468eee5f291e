// The benchmark is a module of its own so that it builds from its own
// directory and never enters the product's `go build ./... && go test
// ./...`. The module path sits under repro/ on purpose: Go's internal
// rule is checked on import paths, so repro/bench may import
// repro/internal/*; the replace points at the checkout it lives in.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
