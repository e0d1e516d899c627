package dd

import "fmt"

// BasisState returns the vector DD of the computational basis state
// |idx> on n qubits. Bit k of idx is the value of qubit k.
func (m *Manager) BasisState(n int, idx uint64) VEdge {
	if n < 0 || n > 62 {
		panic(fmt.Sprintf("dd: bad qubit count %d", n))
	}
	if n < 64 && idx >= uint64(1)<<uint(n) {
		panic(fmt.Sprintf("dd: basis index %d out of range for %d qubits", idx, n))
	}
	e := m.VOneEdge()
	for level := 0; level < n; level++ {
		if idx>>uint(level)&1 == 0 {
			e = m.MakeVNode(level, e, m.VZeroEdge())
		} else {
			e = m.MakeVNode(level, m.VZeroEdge(), e)
		}
	}
	return e
}

// ZeroState returns |0...0> on n qubits.
func (m *Manager) ZeroState(n int) VEdge { return m.BasisState(n, 0) }

// VectorFromAmplitudes builds the vector DD of an amplitude array whose
// length must be a power of two. The construction recursively splits the
// array in halves, so shared structure is detected by the unique table.
func (m *Manager) VectorFromAmplitudes(amps []complex128) VEdge {
	n := 0
	for 1<<n < len(amps) {
		n++
	}
	if len(amps) == 0 || 1<<n != len(amps) {
		panic(fmt.Sprintf("dd: amplitude array length %d is not a power of two", len(amps)))
	}
	return m.vectorFromSlice(amps, n-1)
}

func (m *Manager) vectorFromSlice(amps []complex128, level int) VEdge {
	if level < 0 {
		// Keep the raw amplitude; quantizing inputs before normalization
		// injects bucket-scale noise into the stored weights above.
		if m.C.Lookup(amps[0]) == 0 {
			return m.VZeroEdge()
		}
		return VEdge{amps[0], m.vTerminal}
	}
	half := len(amps) / 2
	e0 := m.vectorFromSlice(amps[:half], level-1)
	e1 := m.vectorFromSlice(amps[half:], level-1)
	return m.MakeVNode(level, e0, e1)
}

// Amplitude returns entry idx of the vector DD rooted at e, which must
// describe n qubits. The amplitude is the product of edge weights along the
// path selected by the bits of idx, as in Figure 2b of the paper.
func (m *Manager) Amplitude(e VEdge, n int, idx uint64) complex128 {
	w := e.W
	for level := n - 1; level >= 0; level-- {
		if w == 0 {
			return 0
		}
		if e.N.Level != int8(level) {
			panic(fmt.Sprintf("dd: vector node at level %d, expected %d", e.N.Level, level))
		}
		e = e.N.E[idx>>uint(level)&1]
		w *= e.W
	}
	return w
}

// ToArray converts the vector DD to a flat amplitude array of length 2^n
// using the sequential depth-first algorithm (the DDSIM-style conversion
// baseline of Section 4.4; the parallel algorithm lives in
// internal/convert).
func (m *Manager) ToArray(e VEdge, n int) []complex128 {
	out := make([]complex128, uint64(1)<<uint(n))
	m.FillArray(e, n, out)
	return out
}

// FillArray writes the amplitudes of e into out, which must have length
// 2^n. Entries under zero edges are left untouched, so out should be
// zeroed by the caller.
func (m *Manager) FillArray(e VEdge, n int, out []complex128) {
	if uint64(len(out)) != uint64(1)<<uint(n) {
		panic(fmt.Sprintf("dd: output length %d, want %d", len(out), uint64(1)<<uint(n)))
	}
	if e.IsZero() {
		return
	}
	fillRec(e.N, e.W, out)
}

func fillRec(n *VNode, w complex128, out []complex128) {
	if n.Level == TerminalLevel {
		out[0] = w
		return
	}
	half := len(out) / 2
	if e := n.E[0]; !e.IsZero() {
		fillRec(e.N, w*e.W, out[:half])
	}
	if e := n.E[1]; !e.IsZero() {
		fillRec(e.N, w*e.W, out[half:])
	}
}

// VSize returns the number of unique nodes reachable from e, excluding the
// terminal — the DD size s_i the EWMA controller monitors.
func (m *Manager) VSize(e VEdge) int {
	seen := make(map[*VNode]struct{})
	var walk func(n *VNode)
	walk = func(n *VNode) {
		if n.Level == TerminalLevel {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		for _, c := range n.E {
			if !c.IsZero() {
				walk(c.N)
			}
		}
	}
	if !e.IsZero() {
		walk(e.N)
	}
	return len(seen)
}
