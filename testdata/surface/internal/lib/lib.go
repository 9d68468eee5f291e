// Package lib is the surface guard's fixture: Unused and Options.Unset
// are planted, and nothing outside the package names or sets them.
package lib

import "time"

// Options is what main passes to Run.
type Options struct {
	Wait  time.Duration
	Unset int // planted
}

// Result is reached only through Run's signature.
type Result struct{ N int }

// Run is called by main.
func Run(o Options) Result { return Result{N: int(o.Wait)} }

// Unused is planted.
func Unused() {}
