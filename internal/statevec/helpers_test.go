package statevec

// State helpers that only the suites need.

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	amps := make([]complex128, len(s.amps))
	copy(amps, s.amps)
	return &State{n: s.n, amps: amps, threads: s.threads}
}
