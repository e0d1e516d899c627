package dd

import "flatdd/internal/cnum"

// scaleV multiplies an edge weight by w, keeping the zero edge canonical.
// The product stays raw: top weights are exact arithmetic end to end, only
// node-stored weights are grid-snapped (see MakeVNode).
func (m *Manager) scaleV(e VEdge, w complex128) VEdge {
	if e.IsZero() || w == 0 {
		return m.VZeroEdge()
	}
	wc := e.W * w
	if wc == 0 {
		return m.VZeroEdge()
	}
	return VEdge{wc, e.N}
}

func (m *Manager) scaleM(e MEdge, w complex128) MEdge {
	if e.IsZero() || w == 0 {
		return m.MZeroEdge()
	}
	wc := e.W * w
	if wc == 0 {
		return m.MZeroEdge()
	}
	return MEdge{wc, e.N}
}

// Add returns the sum of two vector DDs. Operands must stem from this
// manager and describe vectors of the same dimension.
func (m *Manager) Add(a, b VEdge) VEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.IsTerminal() || b.IsTerminal() {
		if !a.IsTerminal() || !b.IsTerminal() {
			panic("dd: Add operands of mismatched dimension")
		}
		w := a.W + b.W
		if m.C.Lookup(w) == 0 {
			return m.VZeroEdge()
		}
		return VEdge{w, m.vTerminal}
	}
	if a.N.Level != b.N.Level {
		panic("dd: Add operands of mismatched level")
	}
	// Factor out a.W so the cache key depends only on the node pair and the
	// relative weight b/a: a + b = a.W * (n_a + (b.W/a.W) n_b).
	ratio := m.C.Lookup(b.W / a.W)
	key := addKey{a.N, b.N, cnum.KeyOf(ratio)}
	if r, ok := m.addCT.get(key); ok {
		return m.scaleV(r, a.W)
	}
	var ch [2]VEdge
	for i := 0; i < 2; i++ {
		ea := a.N.E[i]
		eb := b.N.E[i]
		ch[i] = m.Add(ea, m.scaleV(eb, ratio))
	}
	r := m.MakeVNode(int(a.N.Level), ch[0], ch[1])
	m.addCT.put(key, r)
	return m.scaleV(r, a.W)
}

// MAdd returns the sum of two matrix DDs.
func (m *Manager) MAdd(a, b MEdge) MEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.IsTerminal() || b.IsTerminal() {
		if !a.IsTerminal() || !b.IsTerminal() {
			panic("dd: MAdd operands of mismatched dimension")
		}
		w := a.W + b.W
		if m.C.Lookup(w) == 0 {
			return m.MZeroEdge()
		}
		return MEdge{w, m.mTerminal}
	}
	if a.N.Level != b.N.Level {
		panic("dd: MAdd operands of mismatched level")
	}
	ratio := m.C.Lookup(b.W / a.W)
	key := maddKey{a.N, b.N, cnum.KeyOf(ratio)}
	if r, ok := m.maddCT.get(key); ok {
		return m.scaleM(r, a.W)
	}
	var ch [4]MEdge
	for i := range ch {
		ch[i] = m.MAdd(a.N.E[i], m.scaleM(b.N.E[i], ratio))
	}
	r := m.MakeMNode(int(a.N.Level), ch)
	m.maddCT.put(key, r)
	return m.scaleM(r, a.W)
}

// MulMV multiplies a matrix DD by a vector DD (the DD-based M·V used by the
// DDSIM-phase simulation). Identical sub-multiplications are shared through
// the compute table, which is keyed on the node pair only: by bilinearity
// the operand weights factor out of the product.
func (m *Manager) MulMV(M MEdge, v VEdge) VEdge {
	if M.IsZero() || v.IsZero() {
		return m.VZeroEdge()
	}
	w := M.W * v.W
	if w == 0 {
		return m.VZeroEdge()
	}
	if M.IsTerminal() || v.IsTerminal() {
		if !M.IsTerminal() || !v.IsTerminal() {
			panic("dd: MulMV operands of mismatched dimension")
		}
		return VEdge{w, m.vTerminal}
	}
	if M.N.Level != v.N.Level {
		panic("dd: MulMV operands of mismatched level")
	}
	key := mvKey{M.N, v.N}
	if r, ok := m.mvCT.get(key); ok {
		return m.scaleV(r, w)
	}
	level := int(M.N.Level)
	var ch [2]VEdge
	for i := 0; i < 2; i++ {
		sum := m.VZeroEdge()
		for k := 0; k < 2; k++ {
			me := M.N.Child(i, k)
			ve := v.N.E[k]
			if me.IsZero() || ve.IsZero() {
				continue
			}
			sum = m.Add(sum, m.MulMV(me, ve))
		}
		ch[i] = sum
	}
	r := m.MakeVNode(level, ch[0], ch[1])
	m.mvCT.put(key, r)
	return m.scaleV(r, w)
}

// MulMM multiplies two matrix DDs (the DDMM operation used by gate fusion:
// MulMM(A, B) represents the operator A·B, i.e. "apply B first, then A").
func (m *Manager) MulMM(a, b MEdge) MEdge {
	if a.IsZero() || b.IsZero() {
		return m.MZeroEdge()
	}
	w := a.W * b.W
	if w == 0 {
		return m.MZeroEdge()
	}
	if a.IsTerminal() || b.IsTerminal() {
		if !a.IsTerminal() || !b.IsTerminal() {
			panic("dd: MulMM operands of mismatched dimension")
		}
		return MEdge{w, m.mTerminal}
	}
	if a.N.Level != b.N.Level {
		panic("dd: MulMM operands of mismatched level")
	}
	key := mmKey{a.N, b.N}
	if r, ok := m.mmCT.get(key); ok {
		return m.scaleM(r, w)
	}
	level := int(a.N.Level)
	var ch [4]MEdge
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			sum := m.MZeroEdge()
			for k := 0; k < 2; k++ {
				ae := a.N.Child(i, k)
				be := b.N.Child(k, j)
				if ae.IsZero() || be.IsZero() {
					continue
				}
				sum = m.MAdd(sum, m.MulMM(ae, be))
			}
			ch[2*i+j] = sum
		}
	}
	r := m.MakeMNode(level, ch)
	m.mmCT.put(key, r)
	return m.scaleM(r, w)
}
