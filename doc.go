// Package repro is a from-scratch Go reproduction of Ho & Johnsson,
// "Distributed Routing Algorithms for Broadcasting and Personalized
// Communication in Hypercubes" (ICPP 1986): the SBT, MSBT, BST, TCBT and
// Hamiltonian-path routing structures, their broadcast and personalized
// communication algorithms, an analytic complexity model, a discrete-event
// simulator of an iPSC-like machine, and a goroutine/channel
// message-passing runtime for end-to-end validation.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record, which cmd/experiments
// regenerates. Performance is measured by the module in bench/.
package repro
