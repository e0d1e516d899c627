package faults

// Point introspection that only the suites need.

import "sort"

// Fires returns how many times the point actually fired.
func (p *Point) Fires() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fires
}

// Names returns the sorted names of every point seen so far.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.points))
	for n := range r.points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the point's catalog name ("" on nil).
func (p *Point) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Hits returns how many times the hook site was reached.
func (p *Point) Hits() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}
