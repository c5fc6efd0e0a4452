// Package merlin is a from-scratch Go reproduction of "Merlin: Multi-tier
// Optimization of eBPF Code for Performance and Compactness" (ASPLOS 2024).
//
// The implementation lives under internal/: the eBPF ISA, an LLVM-flavoured
// IR with Merlin's IR-tier passes, a code generator, the bytecode refinement
// tier, a simulated kernel verifier, an executing VM with microarchitecture
// models, the K2 baseline, the benchmark corpus, and one experiment function
// per table and figure of the paper's evaluation. See README.md for the map
// and DESIGN.md for the design rationale; bench/ is the end-to-end benchmark.
package merlin
