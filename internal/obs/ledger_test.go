package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestLedgerPhaseAccounting(t *testing.T) {
	l := NewResourceLedger()

	l.Begin("dd")
	l.AddCPU(1000)
	l.ObserveDD(100, 9600)
	l.ObserveDD(50, 4800) // shrink: phase peak must hold
	pc, ok := l.End()
	if !ok {
		t.Fatal("End() reported no open phase")
	}
	if pc.Phase != "dd" || pc.CPUNs != 1000 {
		t.Errorf("dd phase = %+v", pc)
	}
	if pc.PeakDDNodes != 100 || pc.PeakDDBytes != 9600 {
		t.Errorf("dd peaks = %d nodes / %d bytes, want 100/9600", pc.PeakDDNodes, pc.PeakDDBytes)
	}
	if pc.WallNs < 0 {
		t.Errorf("negative wall %d", pc.WallNs)
	}

	// Begin auto-ends the open phase.
	l.Begin("convert")
	l.AddFlat(1 << 20)
	l.Begin("dmav")
	l.AddFlat(1 << 19)
	l.AddFlat(-(1 << 19))

	snap := l.Snapshot()
	if len(snap.Phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(snap.Phases), snap.Phases)
	}
	if snap.Phases[1].Phase != "convert" || snap.Phases[1].PeakFlatBytes != 1<<20 {
		t.Errorf("convert phase = %+v", snap.Phases[1])
	}
	// dmav inherits the standing 1 MiB flat footprint and peaked at 1.5 MiB.
	if got := snap.Phases[2].PeakFlatBytes; got != 1<<20+1<<19 {
		t.Errorf("dmav flat peak = %d, want %d", got, 1<<20+1<<19)
	}
	if snap.PeakDDNodes != 100 {
		t.Errorf("run peak DD nodes = %d, want 100", snap.PeakDDNodes)
	}
	// Run-wide peak: 1.5 MiB flat + live DD bytes at the time (4800).
	if snap.PeakBytes < 1<<20+1<<19 {
		t.Errorf("run peak bytes = %d, want >= %d", snap.PeakBytes, 1<<20+1<<19)
	}
	if snap.CurrentBytes != 1<<20+4800 {
		t.Errorf("current bytes = %d, want %d", snap.CurrentBytes, 1<<20+4800)
	}
	if snap.CPUNs != 1000 {
		t.Errorf("total CPU = %d, want 1000", snap.CPUNs)
	}
}

func TestLedgerSnapshotSamplesOpenPhase(t *testing.T) {
	l := NewResourceLedger()
	l.Begin("dd")
	time.Sleep(time.Millisecond)
	snap := l.Snapshot()
	if len(snap.Phases) != 1 {
		t.Fatalf("got %d phases", len(snap.Phases))
	}
	if snap.Phases[0].WallNs < int64(time.Millisecond) {
		t.Errorf("open phase wall %d, want >= 1ms", snap.Phases[0].WallNs)
	}
	// The live sample must not disturb the accumulating phase.
	pc, ok := l.End()
	if !ok || pc.WallNs < snap.Phases[0].WallNs {
		t.Errorf("End() wall %d < snapshot wall %d", pc.WallNs, snap.Phases[0].WallNs)
	}
}

func TestLedgerAddCPUOutsidePhaseDropped(t *testing.T) {
	l := NewResourceLedger()
	l.AddCPU(500) // no open phase: a late batch completion
	l.Begin("dd")
	l.End()
	l.AddCPU(700) // after the run
	if snap := l.Snapshot(); snap.CPUNs != 0 {
		t.Errorf("CPU attributed outside phases: %d", snap.CPUNs)
	}
}

func TestLedgerPhaseEndFiresHook(t *testing.T) {
	l := NewResourceLedger()
	var mu sync.Mutex
	var got []LedgerSnapshot
	l.OnUpdate(func(s LedgerSnapshot) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
		// The hook must run outside the ledger lock.
		_ = l.Snapshot()
	})
	l.Begin("fuse")
	l.AddFlat(1 << 21)
	l.End()
	l.End() // no open phase: no hook
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1 (the phase end)", len(got))
	}
	if got[0].CurrentBytes != 1<<21 || len(got[0].Phases) != 1 {
		t.Errorf("hook snapshot = %+v, want the closed fuse phase at 2 MiB", got[0])
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *ResourceLedger
	l.Begin("dd")
	l.AddCPU(1)
	l.ObserveDD(1, 1)
	l.AddFlat(1)
	l.OnUpdate(func(LedgerSnapshot) {})
	if _, ok := l.End(); ok {
		t.Error("nil End() closed a phase")
	}
	if snap := l.Snapshot(); len(snap.Phases) != 0 {
		t.Error("nil Snapshot() has phases")
	}
}

func TestLedgerFlatUnderflowClamps(t *testing.T) {
	l := NewResourceLedger()
	l.Begin("dmav")
	l.AddFlat(-1024) // release without a matching allocation
	if snap := l.Snapshot(); snap.CurrentBytes != 0 {
		t.Errorf("current bytes underflowed to %d", snap.CurrentBytes)
	}
}

func TestLedgerSnapshotJSONRoundTrip(t *testing.T) {
	l := NewResourceLedger()
	l.Begin("dd")
	l.ObserveDD(10, 960)
	l.End()
	snap := l.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back LedgerSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Phases) != 1 || back.Phases[0].Phase != "dd" || back.PeakDDNodes != 10 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestAllocSampleSub(t *testing.T) {
	a := AllocSample{Bytes: 100, Objects: 10, GCCycles: 2}
	b := AllocSample{Bytes: 150, Objects: 12, GCCycles: 2}
	d := b.Sub(a)
	if d.Bytes != 50 || d.Objects != 2 || d.GCCycles != 0 {
		t.Errorf("Sub = %+v", d)
	}
	// Clamped, never underflows.
	if d = a.Sub(b); d.Bytes != 0 || d.Objects != 0 {
		t.Errorf("reverse Sub underflowed: %+v", d)
	}
}

func TestReadAllocSampleMonotone(t *testing.T) {
	a := ReadAllocSample()
	buf := make([]byte, 1<<16)
	_ = buf
	b := ReadAllocSample()
	if b.Bytes < a.Bytes {
		t.Errorf("alloc bytes went backwards: %d -> %d", a.Bytes, b.Bytes)
	}
	if d := b.Sub(a); d.Bytes == 0 {
		t.Log("no allocation observed between samples (allowed, but unexpected)")
	}
}
