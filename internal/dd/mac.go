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
