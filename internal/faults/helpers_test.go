package faults

// Point introspection that only the suites need.

// Fires returns how many times the point actually fired.
func (p *Point) Fires() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fires
}
