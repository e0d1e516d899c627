// Package flatdd is a from-scratch Go reproduction of "FlatDD: A
// High-Performance Quantum Circuit Simulator using Decision Diagram and
// Flat Array" (Jiang et al., ICPP 2024).
//
// The simulator lives in internal/core; the substrates it is built on are:
//
//   - internal/cnum — tolerance-based complex-number interning
//   - internal/dd — the QMDD decision-diagram kernel
//   - internal/circuit, internal/qasm — circuit IR and OpenQASM 2.0 parser
//   - internal/statevec — the array-based baseline (Quantum++ substitute)
//   - internal/ddsim — the pure-DD baseline (DDSIM substitute)
//   - internal/dmav — DD-matrix x flat-array-vector multiplication with
//     per-thread caching and the MAC cost model
//   - internal/convert — parallel DD-to-array state conversion
//   - internal/ewma — the conversion-timing controller
//   - internal/block — narrow gates as small dense blocks for the DMAV phase
//   - internal/fusion — DMAV-aware gate fusion and the k-operations baseline
//   - internal/workloads, internal/harness — benchmark circuits and the
//     experiment harness reproducing every table and figure of the paper
//
// Entry points: cmd/flatdd (simulate a circuit), cmd/flatdd-bench
// (regenerate the paper's evaluation), and the runnable programs under
// examples/. The benchmarks in bench_test.go map one-to-one onto the
// paper's tables and figures; see DESIGN.md for the index and
// EXPERIMENTS.md for measured-vs-paper results.
package flatdd
