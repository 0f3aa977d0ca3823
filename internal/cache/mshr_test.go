package cache

import "testing"

func TestMSHRAllocateAndExpire(t *testing.T) {
	m := NewMSHRFile(2)
	if m.Capacity() != 2 {
		t.Fatal("capacity accessor wrong")
	}
	done, ok := m.Allocate(0, 100, 50)
	if !ok || done != 50 {
		t.Fatalf("allocate: done=%d ok=%v", done, ok)
	}
	if m.Outstanding(0) != 1 {
		t.Fatal("one miss must be outstanding")
	}
	if m.Outstanding(50) != 0 {
		t.Fatal("miss must retire at its completion cycle")
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(0, 100, 60)
	done, ok := m.Allocate(5, 100, 90)
	if !ok || done != 60 {
		t.Fatalf("merge must return the original completion 60, got %d ok=%v", done, ok)
	}
	if m.Merges != 1 || m.Allocations != 1 {
		t.Fatalf("merges=%d allocations=%d", m.Merges, m.Allocations)
	}
	if m.Outstanding(10) != 1 {
		t.Fatal("merged request must not consume a second register")
	}
}

func TestMSHRFullStall(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(0, 1, 40)
	m.Allocate(0, 2, 70)
	free, ok := m.Allocate(10, 3, 100)
	if ok {
		t.Fatal("full file must refuse")
	}
	if free != 40 {
		t.Fatalf("earliest free cycle %d, want 40", free)
	}
	if m.FullStalls != 1 {
		t.Fatalf("FullStalls = %d", m.FullStalls)
	}
	// After the first entry retires, allocation succeeds.
	if _, ok := m.Allocate(40, 3, 100); !ok {
		t.Fatal("allocation must succeed once a register frees")
	}
}

func TestMSHRLookup(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(0, 7, 33)
	if done, ok := m.Lookup(7); !ok || done != 33 {
		t.Fatalf("lookup: done=%d ok=%v", done, ok)
	}
	if _, ok := m.Lookup(8); ok {
		t.Fatal("lookup of absent block must fail")
	}
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewMSHRFile(0)
}

func TestMSHREarliestDone(t *testing.T) {
	m := NewMSHRFile(4)
	if m.EarliestDone() != -1 {
		t.Fatal("an empty file has no earliest completion")
	}
	m.Allocate(0, 1, 90)
	m.Allocate(0, 2, 30)
	m.Allocate(0, 3, 60)
	if got := m.EarliestDone(); got != 30 {
		t.Fatalf("EarliestDone = %d, want 30", got)
	}
	m.Expire(30)
	if got := m.EarliestDone(); got != 60 {
		t.Fatalf("EarliestDone after expiring 30 = %d, want 60", got)
	}
}

// TestMSHRStaleEntryVisibleUntilExpire pins lazy expiry: a completed
// fill stays visible to Lookup until Expire (directly, or through
// Outstanding or Allocate) retires it.
func TestMSHRStaleEntryVisibleUntilExpire(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(0, 7, 20)
	if done, ok := m.Lookup(7); !ok || done != 20 {
		t.Fatalf("completed entry before any Expire: done=%d ok=%v, want 20 true", done, ok)
	}
	m.Expire(19)
	if _, ok := m.Lookup(7); !ok {
		t.Fatal("Expire before the completion cycle must keep the entry")
	}
	if m.Outstanding(100) != 0 {
		t.Fatal("the entry must retire once expired")
	}
	if _, ok := m.Lookup(7); ok {
		t.Fatal("an expired entry must leave Lookup")
	}
}

// TestMSHRExpireKeepsSurvivors: retiring some entries leaves every
// unfinished one findable, whatever its slot.
func TestMSHRExpireKeepsSurvivors(t *testing.T) {
	m := NewMSHRFile(5)
	done := map[Addr]int64{10: 5, 11: 50, 12: 6, 13: 70, 14: 7}
	for _, b := range []Addr{10, 11, 12, 13, 14} {
		m.Allocate(0, b, done[b])
	}
	if m.Outstanding(10) != 2 {
		t.Fatalf("Outstanding(10) = %d, want 2", m.Outstanding(10))
	}
	for b, d := range done {
		got, ok := m.Lookup(b)
		if live := d > 10; ok != live || (live && got != d) {
			t.Errorf("block %d: Lookup = %d, %v; want live=%v at %d", b, got, ok, live, d)
		}
	}
	if _, ok := m.Allocate(10, 15, 80); !ok {
		t.Fatal("retired registers must be reusable")
	}
}
