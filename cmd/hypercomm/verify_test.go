package main

import "testing"

// TestVerifyCollectives runs the fault-free drill in process from a root
// other than 0, and holds the -s flag of every rooted subcommand to the
// cube's addresses.
func TestVerifyCollectives(t *testing.T) {
	if err := verifyCollectives(3, 5); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-n", "3", "-s", "8"},
		{"-n", "3", "-s", "-1"},
		{"-n", "0"},
	} {
		for name, cmd := range map[string]func([]string) error{
			"broadcast": cmdBroadcast, "scatter": cmdScatter, "tree": cmdTree, "verify": cmdVerify,
		} {
			if err := cmd(args); err == nil {
				t.Errorf("%s %v: accepted", name, args)
			}
		}
	}
}
