// Package faucets is a from-scratch Go reproduction of "Faucets:
// Efficient Resource Allocation on the Computational Grid" (Kalé,
// Kumar, Potnuru, DeSouza, Bandhakavi — ICPP 2004): a market-based grid
// resource-allocation framework in which Compute Servers compete for
// every job by submitting bids, jobs carry quality-of-service contracts
// with soft/hard-deadline payoff functions, and adaptive jobs let smart
// schedulers shrink and expand allocations to keep machines full.
//
// A live grid is booted by internal/grid and a simulated one run by
// internal/gridsim; runnable daemons in cmd/;
// worked examples in examples/; the experiment suite (bench harness) in
// bench_test.go backed by internal/experiments. See README.md,
// DESIGN.md and EXPERIMENTS.md.
package faucets
