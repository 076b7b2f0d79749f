// Package arq reproduces "Adaptively Routing P2P Queries Using Association
// Analysis" (Connelly, Bowron, Xiao, Tan, Wang — ICPP 2006) as a Go
// library: association-rule query routing for unstructured peer-to-peer
// networks, the four rule-maintenance policies the paper evaluates, the
// trace and simulation substrates they run on, and a message-level overlay
// simulator that deploys the rules against the classical baselines.
//
// The public surface lives in the internal packages (this module is the
// application); see README.md for the map, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/arqbench regenerates every table and figure.
package arq
