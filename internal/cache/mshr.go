package cache

// MSHRFile models a set of miss-status holding registers: the bound on
// outstanding misses below a cache. Requests to a block already in
// flight merge into its entry; when every register holds an unfinished
// miss, new misses must stall — which is how the paper's 8-entry L1 MSHR
// file throttles demand on the L2.
//
// The registers are two parallel fixed arrays (block address, completion
// cycle) whose first n slots are live; the file never allocates after
// construction. Expiry is lazy: an entry whose fill has completed stays
// visible to Lookup until the next Expire (called by Outstanding and
// Allocate) retires it.
type MSHRFile struct {
	block []Addr  // block address per live register
	done  []int64 // completion cycle per live register
	n     int     // live registers: block[:n], done[:n]

	Allocations int64
	Merges      int64
	FullStalls  int64
}

// NewMSHRFile creates a file with the given number of registers.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRFile{block: make([]Addr, capacity), done: make([]int64, capacity)}
}

// Capacity returns the number of registers.
func (m *MSHRFile) Capacity() int { return len(m.block) }

// Expire retires every miss completed at or before now.
func (m *MSHRFile) Expire(now int64) {
	for i := 0; i < m.n; {
		if m.done[i] <= now {
			m.n--
			m.block[i], m.done[i] = m.block[m.n], m.done[m.n]
			continue
		}
		i++
	}
}

// Outstanding returns the number of misses still in flight at now.
func (m *MSHRFile) Outstanding(now int64) int {
	m.Expire(now)
	return m.n
}

// find returns block's register index, or -1.
func (m *MSHRFile) find(block Addr) int {
	for i := 0; i < m.n; i++ {
		if m.block[i] == block {
			return i
		}
	}
	return -1
}

// Lookup reports whether block is already in flight and, if so, when its
// fill completes.
func (m *MSHRFile) Lookup(block Addr) (doneAt int64, ok bool) {
	if i := m.find(block); i >= 0 {
		return m.done[i], true
	}
	return 0, false
}

// EarliestDone returns the earliest completion cycle among in-flight
// misses, or -1 when none are outstanding. Callers use it to schedule a
// retry after a full-file stall.
func (m *MSHRFile) EarliestDone() int64 {
	earliest := int64(-1)
	for _, d := range m.done[:m.n] {
		if earliest < 0 || d < earliest {
			earliest = d
		}
	}
	return earliest
}

// Allocate records a miss for block completing at doneAt. If the block
// is already in flight the request merges (returning the earlier entry's
// completion). If the file is full it returns the earliest cycle at
// which a register frees, and ok=false.
func (m *MSHRFile) Allocate(now int64, block Addr, doneAt int64) (effectiveDone int64, ok bool) {
	m.Expire(now)
	if i := m.find(block); i >= 0 {
		m.Merges++
		return m.done[i], true
	}
	if m.n == len(m.block) {
		m.FullStalls++
		return m.EarliestDone(), false
	}
	m.block[m.n], m.done[m.n] = block, doneAt
	m.n++
	m.Allocations++
	return doneAt, true
}
