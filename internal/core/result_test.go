package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flatdd/internal/dd"
)

// oldTopAmplitudes is the implementation TopAmplitudes replaced (copy
// every nonzero amplitude, sort all of them), made deterministic with a
// stable sort over the index-ordered entries: ties go to the lower index.
func oldTopAmplitudes(state []complex128, k int) []dd.AmpEntry {
	if k <= 0 {
		return nil
	}
	entries := make([]dd.AmpEntry, 0, len(state))
	for i, a := range state {
		if a != 0 {
			entries = append(entries, dd.AmpEntry{Index: uint64(i), Amplitude: a})
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return cmplx.Abs(entries[i].Amplitude) > cmplx.Abs(entries[j].Amplitude)
	})
	if k > len(entries) {
		k = len(entries)
	}
	return entries[:k]
}

// oldSample is the implementation Sample replaced: a materialized
// cumulative distribution and one binary search per shot.
func oldSample(state []complex128, rng *rand.Rand, shots int) map[uint64]int {
	cum := make([]float64, len(state))
	acc := 0.0
	for i, a := range state {
		acc += real(a)*real(a) + imag(a)*imag(a)
		cum[i] = acc
	}
	counts := make(map[uint64]int)
	for k := 0; k < shots; k++ {
		x := rng.Float64()
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if x < cum[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		counts[uint64(lo)]++
	}
	return counts
}

// resultStates are normalized states that stress the selection and the
// sampler: dense random, mostly zero, blocks of exactly tied magnitudes
// (with differing phases), and mass concentrated at either end.
func resultStates(rng *rand.Rand, n int) map[string][]complex128 {
	dim := 1 << uint(n)
	normalize := func(v []complex128) []complex128 {
		var norm float64
		for _, a := range v {
			norm += real(a)*real(a) + imag(a)*imag(a)
		}
		for i := range v {
			v[i] /= complex(math.Sqrt(norm), 0)
		}
		return v
	}
	dense := make([]complex128, dim)
	for i := range dense {
		dense[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	sparse := make([]complex128, dim)
	for i := 0; i < 5; i++ {
		sparse[rng.Intn(dim)] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ties := make([]complex128, dim)
	phases := []complex128{1, -1, 1i, -1i}
	for i := range ties {
		if i%3 != 0 {
			ties[i] = phases[rng.Intn(4)] * complex(float64(1+i%4), 0)
		}
	}
	uniform := make([]complex128, dim)
	for i := range uniform {
		uniform[i] = 1
	}
	first := make([]complex128, dim)
	first[0] = 1
	last := make([]complex128, dim)
	last[dim-1] = 1
	// A sub-normalized state: draws beyond the total mass fall through
	// to the last basis state.
	leaky := normalize(append([]complex128(nil), dense...))
	for i := range leaky {
		leaky[i] *= 0.8
	}
	return map[string][]complex128{
		"dense": normalize(dense), "sparse": normalize(sparse), "ties": normalize(ties),
		"uniform": normalize(uniform), "first": first, "last": last, "leaky": leaky,
	}
}

func TestResultExtractionMatchesOld(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 4, 9} {
		for name, state := range resultStates(rng, n) {
			s := New(n, Options{})
			s.state, s.phase = state, PhaseDMAV
			for _, k := range []int{0, 1, 3, 8, len(state), len(state) + 5} {
				got, want := s.TopAmplitudes(k), oldTopAmplitudes(state, k)
				if len(got) != len(want) {
					t.Fatalf("n=%d %s k=%d: %d entries, want %d", n, name, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d %s k=%d: entry %d = %+v, want %+v", n, name, k, i, got[i], want[i])
					}
				}
			}
			for _, shots := range []int{0, 1, 7, 1024} {
				got := s.Sample(rand.New(rand.NewSource(int64(shots))), shots)
				want := oldSample(state, rand.New(rand.NewSource(int64(shots))), shots)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d %s shots=%d: counts %v, want %v", n, name, shots, got, want)
				}
			}
		}
	}
}
