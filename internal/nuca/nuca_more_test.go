package nuca

import (
	"testing"

	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
)

func TestVictimWayPrefersInvalid(t *testing.T) {
	c, _ := build(t, nil)
	set := 0
	slowest := c.NumGroups() - 1
	// Fill one way of the slowest group; the victim must be the other
	// (still invalid) way, not the occupied one.
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(0), Write: false})
	first := c.victimWay(set, slowest)
	if c.keys[set*c.assoc+first]&keyValid != 0 {
		t.Fatal("victim must prefer the invalid way")
	}
}

func TestPartialMatchesPerGroup(t *testing.T) {
	c, _ := build(t, nil)
	setBlocks := c.geo.NumSets()
	slowest := uint32(1) << uint(c.NumGroups()-1)
	// Install tag 1 (set 0); it lands in the slowest group.
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1 * setBlocks), Write: false})
	if way, groups := c.search(0, 1); way < 0 || groups != slowest {
		t.Fatalf("resident tag: way %d, groups %#b; want a hit in group mask %#b", way, groups, slowest)
	}
	// 129 shares its low 7 bits with 1: a partial match but no hit.
	if way, groups := c.search(0, 129); way != -1 || groups != slowest {
		t.Fatalf("partial match: way %d, groups %#b; want a miss in group mask %#b", way, groups, slowest)
	}
	if way, groups := c.search(0, 2); way != -1 || groups != 0 {
		t.Fatalf("tag with different partial bits: way %d, groups %#b; want a miss with no groups", way, groups)
	}
}

// TestSearchMatchesPerWayScan checks the fused pass against the two
// scans it replaces, on a cache warmed by a conflict-heavy stream: the
// hit way is the first valid way holding the tag, and group g is in the
// mask iff one of its valid ways agrees on the partial tag.
func TestSearchMatchesPerWayScan(t *testing.T) {
	c, _ := build(t, nil)
	rng := mathx.NewRNG(7)
	sets := c.geo.NumSets()
	for i := 0; i < 20000; i++ {
		c.Access(memsys.Req{Now: int64(i) * 40, Addr: blockAddr(rng.Intn(600)*sets + rng.Intn(4)), Write: rng.Bool(0.3)})
	}
	partial := uint64(1)<<uint(c.cfg.PartialTagBits) - 1
	hits, partialOnly := 0, 0
	for i := 0; i < 20000; i++ {
		set, tag := rng.Intn(4), uint64(rng.Intn(600))
		wantWay, wantGroups := -1, uint32(0)
		for w := 0; w < c.assoc; w++ {
			k := c.keys[set*c.assoc+w]
			if k&keyValid == 0 {
				continue
			}
			if k>>keyTagShift == tag && wantWay < 0 {
				wantWay = w
			}
			if (k>>keyTagShift)&partial == tag&partial {
				wantGroups |= 1 << uint(c.groupOfWay(w))
			}
		}
		if way, groups := c.search(set, tag); way != wantWay || groups != wantGroups {
			t.Fatalf("set %d tag %d: search gave way %d groups %#b, scan gave way %d groups %#b",
				set, tag, way, groups, wantWay, wantGroups)
		}
		if wantWay >= 0 {
			hits++
		} else if wantGroups != 0 {
			partialOnly++
		}
	}
	if hits == 0 || partialOnly == 0 {
		t.Fatalf("%d hits and %d partial-only misses; the check needs both", hits, partialOnly)
	}
}

func TestSSEnergyMissWithFalseMatchSlower(t *testing.T) {
	c, _ := build(t, func(cfg *Config) { cfg.Policy = SSEnergy })
	setBlocks := c.geo.NumSets()
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1 * setBlocks), Write: false}) // tag 1 resident
	// Miss with no partial match: early detection.
	r1 := c.Access(memsys.Req{Now: 100000, Addr: blockAddr(2 * setBlocks), Write: false})
	// Miss with a false partial match (tag 129): must probe the bank.
	r2 := c.Access(memsys.Req{Now: 300000, Addr: blockAddr(129 * setBlocks), Write: false})
	if r2.DoneAt-300000 <= r1.DoneAt-100000 {
		t.Fatalf("false-match miss (%d cyc) must exceed clean miss (%d cyc)",
			r2.DoneAt-300000, r1.DoneAt-100000)
	}
}

func TestGroupOfMissingBlock(t *testing.T) {
	c, _ := build(t, nil)
	if g := c.GroupOf(blockAddr(99)); g != -1 {
		t.Fatalf("absent block reports group %d, want -1", g)
	}
	if c.Contains(blockAddr(99)) {
		t.Fatal("absent block must not be contained")
	}
}

func TestWriteHitDirtiesAndWritesBackOnce(t *testing.T) {
	c, mem := build(t, nil)
	stride := c.geo.NumSets()
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(0), Write: false})
	c.Access(memsys.Req{Now: 10000, Addr: blockAddr(0), Write: true}) // write hit: dirty (and bubbles up)
	way, ok := c.lookup(blockAddr(0))
	if !ok {
		t.Fatal("block must be resident")
	}
	if c.keys[c.geo.SetIndex(blockAddr(0))*c.assoc+way]&keyDirty == 0 {
		t.Fatal("write hit must dirty the line")
	}
	// Evict a dirty block from the slowest group: a write miss fills
	// it dirty, a clean fill takes the group's other way, and two more
	// fills evict first the dirty block, then the clean one.
	for i, write := range []bool{true, false, false, false} {
		c.Access(memsys.Req{Now: int64(20000 + i*10000), Addr: blockAddr((i + 1) * stride), Write: write})
	}
	if got := c.Counters().Get("evictions"); got != 2 {
		t.Fatalf("%d evictions, want 2", got)
	}
	if got := c.Counters().Get("writebacks"); got != 1 || mem.Writes != 1 {
		t.Fatalf("%d writebacks and %d memory writes, want 1 of each", got, mem.Writes)
	}
}

func TestFillCountsAndDistributionConsistent(t *testing.T) {
	c, _ := build(t, nil)
	rng := mathx.NewRNG(41)
	for i := 0; i < 30000; i++ {
		c.Access(memsys.Req{Now: int64(i) * 40, Addr: blockAddr(rng.Intn(60000)), Write: rng.Bool(0.25)})
	}
	d := c.Distribution()
	if d.Total() != c.Counters().Get("accesses") {
		t.Fatalf("distribution total %d != accesses %d",
			d.Total(), c.Counters().Get("accesses"))
	}
	if d.MissCount() != c.Counters().Get("misses") {
		t.Fatal("miss counts disagree")
	}
}

func TestEnergyOrderingAcrossPolicies(t *testing.T) {
	// ss-performance > incremental > ss-energy in energy for a
	// hit-dominated stream (multicast vs sequential-all vs narrowed).
	run := func(policy SearchPolicy) float64 {
		c, _ := build(t, func(cfg *Config) { cfg.Policy = policy })
		for i := 0; i < 2000; i++ {
			c.Access(memsys.Req{Now: int64(i) * 100, Addr: blockAddr(i % 64), Write: false})
		}
		return c.EnergyNJ()
	}
	perf, inc, energy := run(SSPerformance), run(Incremental), run(SSEnergy)
	if !(perf > inc && inc > energy) {
		t.Fatalf("energy ordering wrong: ss-perf %.0f, incremental %.0f, ss-energy %.0f",
			perf, inc, energy)
	}
}
