package dd

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestSwapAdjacentLevelsMatchesIndexSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		m := New(n)
		amps := randAmps(rng, n)
		e := m.VectorFromAmplitudes(amps)
		l := rng.Intn(n - 1)
		swapped := m.SwapAdjacentLevels(e, n, l)
		got := m.ToArray(swapped, n)
		for idx := range amps {
			// newAmp[idx] = oldAmp[idx with bits l and l+1 exchanged]
			bl := idx >> uint(l) & 1
			bh := idx >> uint(l+1) & 1
			src := idx&^(1<<uint(l))&^(1<<uint(l+1)) | bh<<uint(l) | bl<<uint(l+1)
			if !approx(got[idx], amps[src]) {
				t.Fatalf("trial %d n=%d l=%d: idx %d = %v, want %v", trial, n, l, idx, got[idx], amps[src])
			}
		}
	}
}

// Swapping twice is semantically the identity. The result is not required
// to be pointer-identical to the input: each swap re-normalizes the
// two-level block, and the grid snapping of the stored weights (chosen so
// results are independent of evaluation order, see cnum) can move a
// re-derived ratio to the neighboring bucket. The round trip must agree on
// every amplitude within tolerance, and must be bit-deterministic: an
// independent manager doing the same round trip produces bit-identical
// amplitudes.
func TestSwapAdjacentLevelsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	amps := randAmps(rng, 6)

	m := New(6)
	e := m.VectorFromAmplitudes(amps)
	twice := m.SwapAdjacentLevels(m.SwapAdjacentLevels(e, 6, 2), 6, 2)
	got := m.ToArray(twice, 6)
	want := m.ToArray(e, 6)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("amp %d drifted: %v -> %v", i, want[i], got[i])
		}
	}

	m2 := New(6)
	e2 := m2.VectorFromAmplitudes(amps)
	twice2 := m2.SwapAdjacentLevels(m2.SwapAdjacentLevels(e2, 6, 2), 6, 2)
	got2 := m2.ToArray(twice2, 6)
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("amp %d not deterministic across managers: %v vs %v", i, got[i], got2[i])
		}
	}
}

func TestReorderMatchesPermutedIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		amps := randAmps(rng, n)
		e := m.VectorFromAmplitudes(amps)
		perm := rng.Perm(n)
		re := m.Reorder(e, n, perm)
		got := m.ToArray(re, n)
		for idx := range amps {
			src := PermuteIndexBits(uint64(idx), perm)
			if !approx(got[idx], amps[src]) {
				t.Fatalf("trial %d perm %v: idx %d = %v, want amps[%d]=%v",
					trial, perm, idx, got[idx], src, amps[src])
			}
		}
	}
}

func TestReorderIdentityPermIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	m := New(5)
	e := m.VectorFromAmplitudes(randAmps(rng, 5))
	re := m.Reorder(e, 5, []int{0, 1, 2, 3, 4})
	if re.N != e.N || !approx(re.W, e.W) {
		t.Fatal("identity permutation changed the DD")
	}
}

// Reordering by perm and then by its inverse is semantically the identity.
// As with TestSwapAdjacentLevelsInvolution, pointer identity is not
// guaranteed under grid snapping; the round trip must preserve amplitudes
// within tolerance and be bit-deterministic across managers.
func TestReorderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	amps := randAmps(rng, 6)
	perm := rng.Perm(6)
	inv := make([]int, 6)
	for i, p := range perm {
		inv[p] = i
	}

	roundTrip := func(m *Manager) []complex128 {
		e := m.VectorFromAmplitudes(amps)
		back := m.Reorder(m.Reorder(e, 6, perm), 6, inv)
		return m.ToArray(back, 6)
	}

	m := New(6)
	got := roundTrip(m)
	want := m.ToArray(m.VectorFromAmplitudes(amps), 6)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("perm %v then inverse %v: amp %d drifted %v -> %v", perm, inv, i, want[i], got[i])
		}
	}

	got2 := roundTrip(New(6))
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("amp %d not deterministic across managers: %v vs %v", i, got[i], got2[i])
		}
	}
}

func TestReorderCanShrinkDD(t *testing.T) {
	// A state that is a product across interleaved qubit pairs has a small
	// DD only under an order that groups the pairs... build a state
	// entangling qubit i with qubit i+n/2 and check the interleaved order
	// is smaller than or equal after grouping. At minimum, reordering must
	// preserve size-1 product states.
	m := New(6)
	amps := make([]complex128, 64)
	// Product state |+>^6: any order gives 6 nodes.
	for i := range amps {
		amps[i] = 0.125
	}
	e := m.VectorFromAmplitudes(amps)
	re := m.Reorder(e, 6, []int{5, 4, 3, 2, 1, 0})
	if m.VSize(re) != m.VSize(e) {
		t.Fatalf("product state size changed: %d -> %d", m.VSize(e), m.VSize(re))
	}
}

func TestReorderRejectsBadPerm(t *testing.T) {
	m := New(3)
	e := m.ZeroState(3)
	for _, perm := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v accepted", perm)
				}
			}()
			m.Reorder(e, 3, perm)
		}()
	}
}

func TestSwapAdjacentLevelsBounds(t *testing.T) {
	m := New(3)
	e := m.ZeroState(3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range level accepted")
		}
	}()
	m.SwapAdjacentLevels(e, 3, 2) // l+1 == n is invalid
}
