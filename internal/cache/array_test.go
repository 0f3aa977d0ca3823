package cache

import (
	"testing"
	"testing/quick"

	"nurapid/internal/mathx"
)

func smallGeo() Geometry {
	return Geometry{CapacityBytes: 4096, BlockBytes: 64, Assoc: 4} // 16 sets
}

func TestNewArrayRejectsBadGeometry(t *testing.T) {
	if _, err := NewArray(Geometry{}, LRU, nil); err == nil {
		t.Fatal("bad geometry must be rejected")
	}
}

func TestMustNewArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewArray must panic on bad geometry")
		}
	}()
	MustNewArray(Geometry{}, LRU, nil)
}

func TestArrayLookupMissOnEmpty(t *testing.T) {
	a := MustNewArray(smallGeo(), LRU, nil)
	if _, hit := a.Lookup(0x1000); hit {
		t.Fatal("empty array must miss")
	}
}

func TestArrayFillThenHit(t *testing.T) {
	a := MustNewArray(smallGeo(), LRU, nil)
	addr := Addr(0x1040)
	set := a.Geometry().SetIndex(addr)
	way := a.VictimWay(set)
	a.Fill(addr, way)
	gotWay, hit := a.Lookup(addr)
	if !hit || gotWay != way {
		t.Fatalf("lookup after fill: way=%d hit=%v", gotWay, hit)
	}
}

func TestArrayVictimPrefersInvalid(t *testing.T) {
	a := MustNewArray(smallGeo(), LRU, nil)
	addr := Addr(0)
	set := a.Geometry().SetIndex(addr)
	a.Fill(addr, 0)
	if v := a.VictimWay(set); v == 0 {
		t.Fatal("victim must prefer an invalid way over the filled one")
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := MustNewArray(smallGeo(), LRU, nil)
	addr := Addr(0x40)
	set := a.Geometry().SetIndex(addr)
	a.Fill(addr, 1)
	a.Invalidate(set, 1)
	if _, hit := a.Lookup(addr); hit {
		t.Fatal("invalidated line must miss")
	}
	if a.CountValid() != 0 {
		t.Fatal("CountValid must be 0 after invalidate")
	}
}

func TestArrayLinePanicsOutOfRange(t *testing.T) {
	a := MustNewArray(smallGeo(), LRU, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Line must panic")
		}
	}()
	a.Line(0, 99)
}

func TestArrayFillResetsState(t *testing.T) {
	a := MustNewArray(smallGeo(), LRU, nil)
	l := a.Fill(0x80, 2)
	l.Dirty = true
	l.Aux = 77
	l2 := a.Fill(0x80+Addr(a.Geometry().CapacityBytes), 2) // same set, new tag
	if l2.Dirty || l2.Aux != 0 {
		t.Fatal("Fill must reset Dirty and Aux")
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := MustNewCache(smallGeo(), LRU, nil)
	o := c.Access(0x100, false)
	if o.Hit {
		t.Fatal("first access must miss")
	}
	o = c.Access(0x100, false)
	if !o.Hit {
		t.Fatal("second access must hit")
	}
	if c.Accesses != 2 || c.Hits != 1 {
		t.Fatalf("counters: accesses=%d hits=%d", c.Accesses, c.Hits)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", c.HitRate())
	}
}

func TestCacheSameBlockDifferentOffsetHits(t *testing.T) {
	c := MustNewCache(smallGeo(), LRU, nil)
	c.Access(0x100, false)
	if o := c.Access(0x13F, false); !o.Hit {
		t.Fatal("access within the same 64-B block must hit")
	}
}

func TestCacheEvictionAndWriteback(t *testing.T) {
	g := smallGeo() // 16 sets, 4 ways
	c := MustNewCache(g, LRU, nil)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	// Fill all 4 ways of set 0, dirtying the first.
	c.Access(0*setStride, true)
	for i := 1; i < 4; i++ {
		c.Access(Addr(i)*setStride, false)
	}
	// Fifth block in set 0 evicts the LRU (the dirty first one).
	o := c.Access(4*setStride, false)
	if o.Hit {
		t.Fatal("conflict access must miss")
	}
	if !o.Evicted {
		t.Fatal("eviction expected")
	}
	if !o.Victim.Dirty {
		t.Fatal("victim was written; eviction must be dirty")
	}
	if o.Victim.Addr != 0 {
		t.Fatalf("victim address %#x, want 0", o.Victim.Addr)
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
}

func TestCacheWriteHitSetsDirty(t *testing.T) {
	g := smallGeo()
	c := MustNewCache(g, LRU, nil)
	c.Access(0x200, false)
	c.Access(0x200, true) // write hit dirties the line
	setStride := Addr(g.NumSets() * g.BlockBytes)
	base := Addr(0x200) / setStride * setStride // not needed; evict via conflicts
	_ = base
	set := g.SetIndex(0x200)
	for i := 1; i <= 4; i++ {
		a := Addr(0x200) + Addr(i)*setStride
		if g.SetIndex(a) != set {
			t.Fatal("stride math wrong")
		}
		o := c.Access(a, false)
		if o.Evicted && o.Victim.Addr == 0x200 {
			if !o.Victim.Dirty {
				t.Fatal("written block must write back dirty")
			}
			return
		}
	}
	t.Fatal("written block was never evicted")
}

func TestCacheContains(t *testing.T) {
	c := MustNewCache(smallGeo(), LRU, nil)
	if c.Contains(0x300) {
		t.Fatal("empty cache cannot contain")
	}
	c.Access(0x300, false)
	if !c.Contains(0x300) {
		t.Fatal("must contain after access")
	}
	if c.Accesses != 1 {
		t.Fatal("Contains must not count as an access")
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	g := smallGeo()
	c := MustNewCache(g, Random, mathx.NewRNG(5))
	rng := mathx.NewRNG(6)
	for i := 0; i < 10000; i++ {
		c.Access(Addr(rng.Intn(1<<20)), rng.Bool(0.3))
	}
	if v := c.Array().CountValid(); v > g.NumBlocks() {
		t.Fatalf("%d valid lines exceed capacity %d", v, g.NumBlocks())
	}
}

func TestCacheQuickRecentAddressResident(t *testing.T) {
	// Property: an address accessed with no intervening accesses to its
	// set is still resident.
	g := smallGeo()
	c := MustNewCache(g, LRU, nil)
	f := func(raw uint32) bool {
		a := Addr(raw)
		c.Access(a, false)
		return c.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCache must panic on bad geometry")
		}
	}()
	MustNewCache(Geometry{}, LRU, nil)
}

// TestAccessLookedMatchesAccess: a Lookup followed by AccessLooked
// behaves exactly like Access — outcomes, counters and the resulting
// replacement state.
func TestAccessLookedMatchesAccess(t *testing.T) {
	for _, policy := range []ReplPolicy{LRU, Random} {
		a := MustNewCache(smallGeo(), policy, mathx.NewRNG(5))
		b := MustNewCache(smallGeo(), policy, mathx.NewRNG(5))
		rng := mathx.NewRNG(6)
		for i := 0; i < 20000; i++ {
			addr, write := Addr(rng.Intn(1<<14)), rng.Bool(0.3)
			way, hit := b.Array().Lookup(addr)
			if got, want := b.AccessLooked(addr, write, way, hit), a.Access(addr, write); got != want {
				t.Fatalf("policy %v access %d: AccessLooked = %+v, Access = %+v", policy, i, got, want)
			}
		}
		if a.Accesses != b.Accesses || a.Hits != b.Hits || a.Evictions != b.Evictions {
			t.Fatalf("policy %v: counters differ: %d/%d/%d vs %d/%d/%d", policy,
				a.Accesses, a.Hits, a.Evictions, b.Accesses, b.Hits, b.Evictions)
		}
	}
}
