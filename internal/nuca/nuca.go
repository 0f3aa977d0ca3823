// Package nuca implements the D-NUCA baseline the paper compares
// against: the best-performing dynamic non-uniform cache architecture of
// Kim et al. (ASPLOS'02), configured as in the paper's Sec. 4.
//
// The 8-MB, 16-way cache is built from 128 small (64-KB) banks tiled in
// a rectangular grid. The 16 ways of every set are distributed over 8
// latency groups of 2 ways each; a way's group is fixed, so moving a
// block between groups means swapping ways ("bubble" replacement). New
// blocks enter the slowest group and bubble toward the fastest on hits;
// eviction takes the LRU block of the slowest group's ways.
//
// Searches use the smart-search (partial tag) array:
//
//   - ss-performance multicasts the search to all 8 group banks in
//     parallel and uses the partial tags only for early miss detection;
//   - ss-energy probes the partial tags first and then searches only the
//     matching groups, closest first.
//
// Per the paper's generous baseline assumptions, the switched network has
// infinite bandwidth and zero energy, and the smart-search array has
// infinite bandwidth; only bank conflicts are modeled. The cache is
// multibanked: accesses to different banks proceed in parallel.
package nuca

import (
	"fmt"
	"math/bits"

	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/floorplan"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

// SearchPolicy selects the D-NUCA lookup strategy.
type SearchPolicy int

const (
	// SSPerformance is the performance-optimal policy: parallel
	// multicast search of all groups plus early miss detection.
	SSPerformance SearchPolicy = iota
	// SSEnergy is the energy-optimal policy: partial tags narrow the
	// search to matching groups, probed sequentially closest-first.
	SSEnergy
	// Incremental probes the groups closest-first with no smart-search
	// array at all — the basic D-NUCA lookup the ss policies improve on
	// (kept as an ablation baseline).
	Incremental
)

func (p SearchPolicy) String() string {
	switch p {
	case SSPerformance:
		return "ss-performance"
	case SSEnergy:
		return "ss-energy"
	case Incremental:
		return "incremental"
	default:
		return fmt.Sprintf("SearchPolicy(%d)", int(p))
	}
}

// Config parameterizes the D-NUCA cache.
type Config struct {
	CapacityBytes int64 // 8 MB in the paper
	BlockBytes    int   // 128
	Assoc         int   // 16
	BankKB        int   // 64
	Policy        SearchPolicy

	// PartialTagBits is the width of the smart-search array entries; the
	// paper uses the 7 least-significant tag bits.
	PartialTagBits int
}

// DefaultConfig is the paper's optimal D-NUCA: 8 MB, 16-way, 128 64-KB
// banks, 8 groups per set, 7-bit partial tags, ss-performance search.
func DefaultConfig() Config {
	return Config{
		CapacityBytes:  8 << 20,
		BlockBytes:     128,
		Assoc:          16,
		BankKB:         64,
		Policy:         SSPerformance,
		PartialTagBits: 7,
	}
}

// bankOccupancy is the cycles one probe occupies a (small, pipelined)
// bank.
const bankOccupancy = 3

// swapOccupancy is the cycles one bubble-swap operation occupies a bank:
// a full 128-B block is read out of or written into the bank and crosses
// the switched network. This is the bandwidth the paper says D-NUCA's
// "frequent swaps" consume — later probes of a bank mid-swap must wait.
const swapOccupancy = 12

// A tag-store key packs one line's state into a word:
// tag<<keyTagShift | dirty<<1 | valid. An invalid way's key is zero.
const (
	keyValid    uint64 = 1
	keyDirty    uint64 = 2
	keyTagShift        = 2
)

// Cache is a D-NUCA cache. It implements memsys.LowerLevel.
type Cache struct {
	cfg       Config
	geo       cache.Geometry
	idx       cache.Index
	numGroups int
	assoc     int
	wpg       int      // ways per latency group
	wayGroup  []int8   // way -> latency group
	keys      []uint64 // sets x assoc tag-store keys; way w belongs to group wayGroup[w]
	stamps    []uint64 // sets x assoc recency stamps, parallel to keys
	clock     uint64

	banks   []memsys.Port
	bankLat []int64
	bankNJ  []float64
	// bankTab flattens the [group][set % banksPerGroup] -> bank id map:
	// entry group*bpg + (set % bpg). When bpg is a power of two the modulo
	// reduces to a mask on the hot path.
	bankTab []int32
	bpg     int
	bpgMask uint32
	bpgPow2 bool

	ssLat int64
	ssNJ  float64
	// partialMask selects a key's valid bit and its partial-tag bits: a
	// key agrees with a valid key under it iff it is valid too and the
	// two partial tags are equal.
	partialMask uint64

	mem    *memsys.Memory
	dist   *stats.Distribution
	ctrs   stats.Counters
	hot    nucaHot
	energy float64
	probe  obs.Probe
}

// nucaHot holds the per-access counters as plain fields; Counters()
// materializes them into the map with the same presence semantics as the
// former Inc calls (a name exists iff its count is non-zero).
type nucaHot struct {
	accesses         int64
	misses           int64
	evictions        int64
	writebacks       int64
	promotions       int64
	bankAccesses     int64
	ssAccesses       int64
	falsePartialHits int64
}

// New builds a D-NUCA cache with bank latencies and energies from the
// cacti model over the rectangular bank grid.
func New(cfg Config, m *cacti.Model, mem *memsys.Memory) (*Cache, error) {
	geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.BankKB <= 0 || cfg.CapacityBytes%int64(cfg.BankKB<<10) != 0 {
		return nil, fmt.Errorf("nuca: capacity %d not divisible into %d-KB banks",
			cfg.CapacityBytes, cfg.BankKB)
	}
	numBanks := int(cfg.CapacityBytes / int64(cfg.BankKB<<10))
	if numBanks%cfg.Assoc != 0 {
		return nil, fmt.Errorf("nuca: %d banks not divisible by associativity %d", numBanks, cfg.Assoc)
	}
	if cfg.PartialTagBits <= 0 || cfg.PartialTagBits > 32 {
		return nil, fmt.Errorf("nuca: partial tag bits %d out of range", cfg.PartialTagBits)
	}
	if err := checkKeyFits(geo); err != nil {
		return nil, err
	}

	grid := floorplan.NewNUCAGrid(int(cfg.CapacityBytes>>20), cfg.BankKB)
	latencies := m.NUCABankLatencies(grid)
	energies := m.NUCABankEnergies(grid)
	order := grid.BanksByDistance()

	// Group the 16 ways into 8 latency groups of 2; each group owns a
	// chunk of 16 banks (by distance), one bank per 16 consecutive sets.
	numGroups := 8
	if cfg.Assoc < numGroups {
		numGroups = cfg.Assoc
	}
	wpg := cfg.Assoc / numGroups
	if cfg.Assoc%numGroups != 0 {
		return nil, fmt.Errorf("nuca: associativity %d does not split evenly into %d latency groups: "+
			"ways %d-%d would belong to no group and never be filled",
			cfg.Assoc, numGroups, wpg*numGroups, cfg.Assoc-1)
	}
	banksPerGroup := numBanks / numGroups
	bankTab := make([]int32, numGroups*banksPerGroup)
	for g := 0; g < numGroups; g++ {
		chunk := order[g*banksPerGroup : (g+1)*banksPerGroup]
		for i, b := range chunk {
			bankTab[g*banksPerGroup+i] = int32(b)
		}
	}

	wayGroup := make([]int8, cfg.Assoc)
	for w := range wayGroup {
		wayGroup[w] = int8(w / wpg)
	}

	labels := make([]string, numGroups)
	for g := range labels {
		labels[g] = fmt.Sprintf("group-%d", g)
	}

	lat64 := make([]int64, numBanks)
	for i, l := range latencies {
		lat64[i] = int64(l)
	}
	return &Cache{
		cfg:       cfg,
		geo:       geo,
		idx:       geo.Index(),
		numGroups: numGroups,
		assoc:     cfg.Assoc,
		wpg:       wpg,
		wayGroup:  wayGroup,
		keys:      make([]uint64, geo.NumSets()*cfg.Assoc),
		stamps:    make([]uint64, geo.NumSets()*cfg.Assoc),
		banks:     make([]memsys.Port, numBanks),
		bankLat:   lat64,
		bankNJ:    energies,
		bankTab:   bankTab,
		bpg:       banksPerGroup,
		bpgMask:   uint32(banksPerGroup - 1),
		bpgPow2:   mathx.IsPow2(int64(banksPerGroup)),
		ssLat:     int64(m.SmartSearchCyc),
		ssNJ:      m.SmartSearchNJ,
		mem:       mem,
		dist:      stats.NewDistribution(labels...),

		partialMask: (1<<uint(cfg.PartialTagBits)-1)<<keyTagShift | keyValid,
	}, nil
}

// checkKeyFits rejects a geometry whose tags would lose their top bits
// when shifted into a key word: the block offset and set index must
// free at least keyTagShift address bits.
func checkKeyFits(geo cache.Geometry) error {
	if indexBits := mathx.Log2(int64(geo.BlockBytes) * int64(geo.NumSets())); indexBits < keyTagShift {
		return fmt.Errorf("nuca: %d block-offset and set-index bits leave %d-bit tags, "+
			"too wide for a key word's %d tag bits", indexBits, 64-indexBits, 64-keyTagShift)
	}
	return nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config, m *cacti.Model, mem *memsys.Memory) *Cache {
	c, err := New(cfg, m, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements memsys.LowerLevel.
func (c *Cache) Name() string { return "dnuca-" + c.cfg.Policy.String() }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetProbe attaches an observability probe (obs.Probeable). Probes only
// observe — simulated state and timing are unaffected — and a nil probe
// restores the zero-overhead fast path. Call before the first access.
// D-NUCA's bubble swap is reported as one promotion plus a depth-1
// demotion link absorbed by the frame the promoted block freed.
func (c *Cache) SetProbe(p obs.Probe) { c.probe = p }

func (c *Cache) groupOfWay(way int) int { return int(c.wayGroup[way]) }

// bankOf returns the bank holding the ways of `group` for `set`.
func (c *Cache) bankOf(group, set int) int {
	if c.bpgPow2 {
		return int(c.bankTab[group*c.bpg+int(uint32(set)&c.bpgMask)])
	}
	return int(c.bankTab[group*c.bpg+set%c.bpg])
}

// probeBank performs one timed, energy-charged access to bank b starting
// no earlier than t, returning when its response is available.
func (c *Cache) probeBank(b int, t int64) int64 {
	start := c.banks[b].Acquire(t, bankOccupancy)
	c.hot.bankAccesses++
	c.energy += c.bankNJ[b]
	return start + c.bankLat[b]
}

// chargeBank records a block-movement bank access (swap traffic, fills):
// the bank is occupied for a full block transfer.
func (c *Cache) chargeBank(b int, t int64) {
	c.banks[b].Acquire(t, swapOccupancy)
	c.hot.bankAccesses++
	c.energy += c.bankNJ[b]
}

func (c *Cache) touch(set, way int) {
	c.clock++
	c.stamps[set*c.assoc+way] = c.clock
}

// lookup finds addr in its set without side effects.
func (c *Cache) lookup(addr uint64) (way int, ok bool) {
	way, _ = c.search(c.idx.SetIndex(addr), c.idx.Tag(addr))
	return way, way >= 0
}

// search makes one side-effect-free pass over the set's keys. It
// returns the way holding tag (-1 on a miss) and, as a bitmask with
// bit g for group g, the groups with a valid way whose partial tag
// matches — the smart-search array's answer. A full match is also a
// partial match, so a hit's group is always in the mask.
//
//nurapid:hotpath
func (c *Cache) search(set int, tag uint64) (way int, groups uint32) {
	want := tag<<keyTagShift | keyValid
	partial := want & c.partialMask
	base := set * c.assoc
	way = -1
	for w, k := range c.keys[base : base+c.assoc] {
		if k&c.partialMask != partial {
			continue
		}
		groups |= 1 << uint(c.wayGroup[w])
		if way < 0 && k&^keyDirty == want {
			way = w
		}
	}
	return way, groups
}

// Access implements memsys.LowerLevel.
//
//nurapid:hotpath
func (c *Cache) Access(req memsys.Req) memsys.AccessResult {
	now, addr, write := req.Now, req.Addr, req.Write
	c.hot.accesses++
	if c.probe != nil {
		c.probe.Emit(obs.Access(now, addr, write, req.Core))
	}
	set := c.idx.SetIndex(addr)
	tag := c.idx.Tag(addr)

	way, groups := c.search(set, tag)
	hitGroup := -1
	if way >= 0 {
		hitGroup = c.groupOfWay(way)
	}

	var done int64
	switch c.cfg.Policy {
	case SSPerformance:
		c.chargeSmartSearch()
		done = c.searchParallel(now, set, hitGroup, groups)
	case SSEnergy:
		c.chargeSmartSearch()
		done = c.searchSequential(now, set, hitGroup, groups)
	case Incremental:
		done = c.searchIncremental(now, set, hitGroup)
	default:
		panic("nuca: unknown search policy")
	}

	if g := hitGroup; g >= 0 {
		c.dist.AddHit(g)
		if c.probe != nil {
			c.probe.Emit(obs.Hit(now, g, done-now))
		}
		if write {
			c.keys[set*c.assoc+way] |= keyDirty
		}
		c.touch(set, way)
		if g > 0 {
			c.promote(now, set, way)
		}
		return memsys.AccessResult{Hit: true, DoneAt: done, Group: g}
	}

	// Miss: fetch from memory and place in the slowest group.
	c.dist.AddMiss()
	c.hot.misses++
	if c.probe != nil {
		c.probe.Emit(obs.Miss(now, addr))
	}
	fillDone := c.mem.Read(done)
	c.fill(now, set, tag, write)
	return memsys.AccessResult{Hit: false, DoneAt: fillDone, Group: -1}
}

func (c *Cache) chargeSmartSearch() {
	c.hot.ssAccesses++
	c.energy += c.ssNJ
}

// searchIncremental probes every group's bank closest-first until the
// block is found in hitGroup (-1 on a miss), with no partial-tag
// filtering; a miss is confirmed only after the farthest bank answers.
func (c *Cache) searchIncremental(now int64, set, hitGroup int) int64 {
	t := now
	for g := 0; g < c.numGroups; g++ {
		t = c.probeBank(c.bankOf(g, set), t)
		if g == hitGroup {
			return t
		}
	}
	return t
}

// searchParallel is ss-performance: every group's bank is probed at once;
// a hit completes when its bank (hitGroup's) responds; a miss with no
// partially matching group is detected as soon as the smart-search array
// answers, otherwise when the slowest probed bank responds.
func (c *Cache) searchParallel(now int64, set, hitGroup int, groups uint32) int64 {
	latest := now + c.ssLat
	var hitDone int64
	for g := 0; g < c.numGroups; g++ {
		resp := c.probeBank(c.bankOf(g, set), now)
		if g == hitGroup {
			hitDone = resp
		}
		if resp > latest {
			latest = resp
		}
	}
	if hitGroup >= 0 {
		return hitDone
	}
	if groups == 0 {
		return now + c.ssLat // early miss
	}
	c.hot.falsePartialHits++
	return latest
}

// searchSequential is ss-energy: only the partially matching groups are
// probed, closest first, each probe starting after the previous one
// answers.
func (c *Cache) searchSequential(now int64, set, hitGroup int, groups uint32) int64 {
	t := now + c.ssLat
	for ; groups != 0; groups &= groups - 1 {
		g := bits.TrailingZeros32(groups)
		t = c.probeBank(c.bankOf(g, set), t)
		if g == hitGroup {
			return t
		}
		c.hot.falsePartialHits++
	}
	return t // miss: confirmed after the last candidate (or the ss array)
}

// promote bubbles the block at (set, way) one group closer to the
// processor by swapping with the LRU way of the adjacent faster group
// (paper Sec. 2.2's "bubble replacement").
func (c *Cache) promote(now int64, set, way int) {
	g := c.groupOfWay(way)
	target := c.victimWay(set, g-1)
	a, b := set*c.assoc+way, set*c.assoc+target
	swapped := c.keys[b]&keyValid != 0
	// Stamps travel with the keys: the promoted block keeps its fresh
	// recency, the demoted one keeps its old stamp.
	c.keys[a], c.keys[b] = c.keys[b], c.keys[a]
	c.stamps[a], c.stamps[b] = c.stamps[b], c.stamps[a]
	c.hot.promotions++
	if c.probe != nil {
		c.probe.Emit(obs.Promote(now, g, g-1))
		if swapped {
			// A bubble swap is a one-link chain: the promoted block
			// leaves group g, displacing g-1's victim into the frame
			// it freed.
			c.probe.Emit(obs.DemoteLink(now, g-1, g, 1))
			c.probe.Emit(obs.Place(now, g, 1))
		} else {
			// The faster group still had an empty way: a pure move.
			c.probe.Emit(obs.Place(now, g-1, 0))
		}
	}
	// A swap reads and writes both banks.
	b1 := c.bankOf(g, set)
	b2 := c.bankOf(g-1, set)
	c.chargeBank(b1, now)
	c.chargeBank(b1, now)
	c.chargeBank(b2, now)
	c.chargeBank(b2, now)
}

// victimWay picks the way of `group` to displace: an invalid way when one
// exists, else the LRU of the group's ways.
func (c *Cache) victimWay(set, group int) int {
	base := group * c.wpg
	victim := base
	var best uint64 = ^uint64(0)
	for w := base; w < base+c.wpg; w++ {
		i := set*c.assoc + w
		if c.keys[i]&keyValid == 0 {
			return w
		}
		if c.stamps[i] < best {
			best = c.stamps[i]
			victim = w
		}
	}
	return victim
}

// fill installs a new block into the slowest group, evicting that group's
// LRU way (the paper: "D-NUCA evicts the block in the slowest way of the
// set", which need not be the set's LRU block).
func (c *Cache) fill(now int64, set int, tag uint64, write bool) {
	slowest := c.numGroups - 1
	way := c.victimWay(set, slowest)
	i := set*c.assoc + way
	bank := c.bankOf(slowest, set)
	if old := c.keys[i]; old&keyValid != 0 {
		dirty := old&keyDirty != 0
		c.hot.evictions++
		if c.probe != nil {
			c.probe.Emit(obs.Evict(now, slowest, dirty))
		}
		if dirty {
			c.hot.writebacks++
			c.chargeBank(bank, now) // victim read
			c.mem.Write()
		}
	}
	key := tag<<keyTagShift | keyValid
	if write {
		key |= keyDirty
	}
	c.keys[i] = key
	c.touch(set, way)
	c.chargeBank(bank, now) // fill write
	if c.probe != nil {
		c.probe.Emit(obs.Place(now, slowest, 0))
	}
}

// Distribution implements memsys.LowerLevel.
func (c *Cache) Distribution() *stats.Distribution { return c.dist }

// EnergyNJ implements memsys.LowerLevel.
func (c *Cache) EnergyNJ() float64 { return c.energy }

// Counters implements memsys.LowerLevel. The hot-path counts live in
// plain fields and are materialized here; a name is created only when
// its count is non-zero, matching the presence semantics of Inc.
func (c *Cache) Counters() *stats.Counters {
	set := func(name string, v int64) {
		if v != 0 {
			c.ctrs.Set(name, v)
		}
	}
	set("accesses", c.hot.accesses)
	set("misses", c.hot.misses)
	set("evictions", c.hot.evictions)
	set("writebacks", c.hot.writebacks)
	set("promotions", c.hot.promotions)
	set("bank_accesses", c.hot.bankAccesses)
	set("ss_accesses", c.hot.ssAccesses)
	set("false_partial_hits", c.hot.falsePartialHits)
	return &c.ctrs
}

// AccessMany implements memsys.BatchAccessor: a trace is replayed with
// each access issued when the previous one completes plus its gap.
//
//nurapid:hotpath
func (c *Cache) AccessMany(now int64, reqs []memsys.Req, out []memsys.AccessResult) int64 {
	for i := range reqs {
		q := reqs[i]
		q.Now = now
		r := c.Access(q)
		if out != nil {
			out[i] = r
		}
		now = r.DoneAt + reqs[i].Gap
	}
	return now
}

// GroupOf reports which latency group currently holds addr, or -1.
func (c *Cache) GroupOf(addr uint64) int {
	way, ok := c.lookup(addr)
	if !ok {
		return -1
	}
	return c.groupOfWay(way)
}

// Contains reports whether addr is resident (no side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.lookup(addr)
	return ok
}

// NumGroups returns the number of latency groups per set.
func (c *Cache) NumGroups() int { return c.numGroups }

// CheckInvariants validates tag-state consistency: an invalid way's key
// is zero (in particular, not dirty), no set holds a tag twice, and all
// stamps are within the clock bound.
func (c *Cache) CheckInvariants() error {
	for set := 0; set < c.geo.NumSets(); set++ {
		seen := make(map[uint64]bool)
		for w := 0; w < c.assoc; w++ {
			i := set*c.assoc + w
			k := c.keys[i]
			if k&keyValid == 0 {
				if k != 0 {
					return fmt.Errorf("set %d way %d is invalid but holds key %#x", set, w, k)
				}
				continue
			}
			tag := k >> keyTagShift
			if seen[tag] {
				return fmt.Errorf("set %d holds tag %#x twice", set, tag)
			}
			seen[tag] = true
			if c.stamps[i] > c.clock {
				return fmt.Errorf("set %d way %d stamp %d beyond clock %d", set, w, c.stamps[i], c.clock)
			}
		}
	}
	return nil
}

var (
	_ memsys.LowerLevel    = (*Cache)(nil)
	_ memsys.BatchAccessor = (*Cache)(nil)
)
