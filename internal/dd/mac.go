package dd

// MACCountNode is MACCount for a bare node reached with nonzero weight,
// sharing the caller's memo table. It is used by the DMAV cost model, which
// needs per-subtree counts for the border-level tasks.
func MACCountNode(n *MNode, memo map[*MNode]int64) int64 {
	return macRec(n, memo)
}

func macRec(n *MNode, memo map[*MNode]int64) int64 {
	if n.Level == TerminalLevel {
		return 1
	}
	if v, ok := memo[n]; ok {
		return v
	}
	var sum int64
	for _, c := range n.E {
		if !c.IsZero() {
			sum += macRec(c.N, memo)
		}
	}
	memo[n] = sum
	return sum
}

// SupportNode returns the qubit support of a node reached with nonzero
// weight: the bit set of levels at which some node below it is not MRep
// (not of the form I⊗child). The node's matrix acts as the identity on
// every qubit outside its support. Levels from 64 up do not fit the mask,
// so a caller with a wider register must not rely on it. memo is the
// caller's, as for MACCountNode.
func SupportNode(n *MNode, memo map[*MNode]uint64) uint64 {
	if n.Level == TerminalLevel {
		return 0
	}
	if v, ok := memo[n]; ok {
		return v
	}
	var v uint64
	if n.Flags&MRep == 0 {
		v = 1 << uint(n.Level)
	}
	for _, c := range n.E {
		if !c.IsZero() {
			v |= SupportNode(c.N, memo)
		}
	}
	memo[n] = v
	return v
}
