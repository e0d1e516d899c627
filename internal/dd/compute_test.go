package dd

import (
	"runtime"
	"testing"
)

// TestCtableGrowsFromUse drives one table from its minimum to its cap: it
// doubles once more than half its slots are used, keeps every entry
// across a grow, stops at 2^ctMaxBits and empties on clear without
// shrinking.
func TestCtableGrowsFromUse(t *testing.T) {
	var c ctable[int, int]
	c.init()
	if got := len(c.entries); got != 1<<ctMinBits {
		t.Fatalf("initial capacity %d, want %d", got, 1<<ctMinBits)
	}
	found := func(k int) bool {
		v, ok := c.get(k)
		return ok && v == -k
	}
	k := 0
	for bits := ctMinBits; bits < ctMaxBits; bits++ {
		capacity := 1 << bits
		// Fill up to exactly half: no grow yet.
		for c.used < capacity/2 {
			c.put(k, -k)
			k++
		}
		if len(c.entries) != capacity {
			t.Fatalf("grew to %d at %d used slots of %d", len(c.entries), c.used, capacity)
		}
		resident := map[int]bool{}
		for i := range k {
			if found(i) {
				resident[i] = true
			}
		}
		// One more entry in a free slot passes half and doubles the table.
		for c.slot(k).valid {
			k++
		}
		c.put(k, -k)
		resident[k] = true
		k++
		if len(c.entries) != 2*capacity {
			t.Fatalf("capacity %d after passing half of %d, want %d", len(c.entries), capacity, 2*capacity)
		}
		for i := range resident {
			if !found(i) {
				t.Fatalf("entry %d lost when the table grew to %d slots", i, 2*capacity)
			}
		}
		if c.used != len(resident) {
			t.Fatalf("used = %d after grow, want the %d resident entries", c.used, len(resident))
		}
	}
	for ; k < 1<<(ctMaxBits+1); k++ {
		c.put(k, -k)
	}
	if got := len(c.entries); got != 1<<ctMaxBits {
		t.Fatalf("capacity %d after %d puts, want the cap %d", got, k, 1<<ctMaxBits)
	}
	c.clear()
	if c.used != 0 || len(c.entries) != 1<<ctMaxBits {
		t.Fatalf("after clear: used %d, capacity %d; want 0, %d", c.used, len(c.entries), 1<<ctMaxBits)
	}
	for i := range k {
		if _, ok := c.get(i); ok {
			t.Fatalf("entry %d survived clear", i)
		}
	}
}

// TestNewAllocatesLittle pins the fixed cost of a Manager: its tables
// start small and grow with use, so creating one costs kilobytes, not the
// tens of megabytes of tables at their cap.
func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(20)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 512<<10 {
		t.Fatalf("New(20) allocated %d B, want < 512 KiB", got)
	}
}

func BenchmarkManagerNew(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		New(20)
	}
}
