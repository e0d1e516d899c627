// Package difftest is the cross-engine differential test suite: it runs
// the same seeded random Clifford+T circuit through every
// simulation engine in the repository — the decision-diagram simulator
// (ddsim), the flat statevector engine (statevec), the pure DMAV engine
// driven gate-by-gate over a flat array, and the full hybrid pipeline
// (core, forced through its DD->array conversion mid-circuit) — and
// asserts that all of them agree amplitude-by-amplitude to within Tol.
//
// The engines share almost no code on their hot paths (DD node arithmetic
// vs dense kernels vs DMAV row/column traversals), so agreement across a
// few hundred random gates is strong evidence against systematic sign,
// ordering, or indexing bugs in any one of them.
//
// By default each test runs a small number of circuits so `go test ./...`
// stays fast; pass -difftest.n=N to sweep N extra random circuits per
// configuration (e.g. `go test ./internal/difftest -difftest.n=50`).
package difftest
