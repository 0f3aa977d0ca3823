package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/sim"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// The traced run interposes on the layers' public interfaces from the
// outside: a workload.Source decorator, a memsys.LowerLevel decorator
// (forwarding AccessMany, so replay still takes the organization's
// batched loop), a timed Organization.Factory, and a loop that calls
// cpu.CPU.Start/Step itself. Calls are always counted; only a sample of
// them is timed, because one time.Now costs tens of nanoseconds, about
// as much as a generator call.

// sampleMask selects the timed sample: one call (or step) in 16.
const sampleMask = 15

// layer accumulates one layer's calls and sampled host time.
type layer struct {
	calls   int64 // every call
	sampled int64 // calls that were timed
	ns      int64 // summed duration of the timed calls, clock cost removed
}

func (l *layer) record(d time.Duration) {
	l.sampled++
	l.ns += int64(d) - intervalCost
}

// nsPerCall is the mean duration of the timed calls.
func (l *layer) nsPerCall() float64 {
	if l.sampled == 0 {
		return 0
	}
	return float64(l.ns) / float64(l.sampled)
}

// total extrapolates the sampled durations to every call.
func (l *layer) total() float64 { return l.nsPerCall() * float64(l.calls) }

func (l *layer) add(o *layer) {
	l.calls += o.calls
	l.sampled += o.sampled
	l.ns += o.ns
}

// Timing a call costs two clock reads. intervalCost is what an empty
// timed interval measures, which every timed call's duration carries
// and record removes; callCost is one whole time.Now, two of which each
// timed call adds to an enclosing interval.
var intervalCost, callCost int64

// calibrateClock measures intervalCost as the median empty interval and
// callCost as the fastest of several batches of back-to-back reads.
func calibrateClock() {
	empty := make([]float64, 20000)
	for i := range empty {
		t := time.Now()
		empty[i] = float64(time.Since(t))
	}
	intervalCost = int64(summarize(empty).Median)
	callCost = 1 << 62
	for b := 0; b < 7; b++ {
		const n = 20000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		callCost = min(callCost, int64(time.Since(t0))/n)
	}
}

// gate marks the steps the step loop samples; child decorators
// holding a gate time exactly the calls made inside a sampled step, so
// the step's self time can be computed.
type gate struct{ on bool }

// sampled reports whether the next call of l is timed: inside a
// sampled step when a gate is set, else one call in sampleMask+1.
func sampled(g *gate, l *layer) bool {
	if g != nil {
		return g.on
	}
	return l.calls&sampleMask == 0
}

// l1Ref is one L1D access: the address and whether it writes.
type l1Ref struct {
	addr  uint64
	write bool
}

// timedSource decorates a workload.Source. With capture set it also
// records the Load/Store stream, which is the core's L1D access stream
// in order.
type timedSource struct {
	inner   workload.Source
	l       *layer
	g       *gate
	capture *[]l1Ref
}

func (s *timedSource) Next() (workload.Instr, bool) {
	var in workload.Instr
	var ok bool
	if sampled(s.g, s.l) {
		t := time.Now()
		in, ok = s.inner.Next()
		s.l.record(time.Since(t))
	} else {
		in, ok = s.inner.Next()
	}
	s.l.calls++
	if s.capture != nil && ok && (in.Kind == workload.Load || in.Kind == workload.Store) {
		*s.capture = append(*s.capture, l1Ref{addr: in.Addr, write: in.Kind == workload.Store})
	}
	return in, ok
}

// timedLower decorates a memsys.LowerLevel. Access is sampled; each
// AccessMany call is timed whole and counted once per request.
type timedLower struct {
	inner memsys.LowerLevel
	l     *layer
	g     *gate
	// batches counts AccessMany calls, so the traced replay can prove
	// the batched path was the one taken.
	batches int64
}

func (d *timedLower) Name() string                      { return d.inner.Name() }
func (d *timedLower) Distribution() *stats.Distribution { return d.inner.Distribution() }
func (d *timedLower) EnergyNJ() float64                 { return d.inner.EnergyNJ() }
func (d *timedLower) Counters() *stats.Counters         { return d.inner.Counters() }

func (d *timedLower) Access(req memsys.Req) memsys.AccessResult {
	var r memsys.AccessResult
	if sampled(d.g, d.l) {
		t := time.Now()
		r = d.inner.Access(req)
		d.l.record(time.Since(t))
	} else {
		r = d.inner.Access(req)
	}
	d.l.calls++
	return r
}

// AccessMany implements memsys.BatchAccessor by forwarding to the inner
// organization's own batched loop.
func (d *timedLower) AccessMany(now int64, reqs []memsys.Req, out []memsys.AccessResult) int64 {
	t := time.Now()
	end := memsys.AccessMany(d.inner, now, reqs, out)
	el := int64(time.Since(t)) - intervalCost
	d.batches++
	d.l.calls += int64(len(reqs))
	d.l.sampled += int64(len(reqs))
	d.l.ns += el
	return end
}

var _ memsys.BatchAccessor = (*timedLower)(nil)

// timedOrg wraps an organization so that its factory is timed and every
// instance it builds is decorated. The key is kept, so results and
// fingerprints compare equal to the undecorated run's.
func timedOrg(org sim.Organization, g *gate, factory, l2 *layer, built *[]*timedLower) sim.Organization {
	inner := org.Factory
	org.Factory = func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		t := time.Now()
		ll := inner(m, mem)
		factory.calls++
		factory.record(time.Since(t))
		d := &timedLower{inner: ll, l: l2, g: g}
		*built = append(*built, d)
		return d
	}
	return org
}

// stepStats is what the step loop measures on one core.
type stepStats struct {
	steps    int64 // Step calls that advanced the core
	idle     int64 // steps with no commit, no fetch, no L1 and no L2 call
	sampled  int64 // timed steps
	stepNS   int64 // summed duration of the timed steps
	childNS  int64 // generator and L2 time inside the timed steps
	children int64 // generator and L2 calls inside the timed steps
}

// selfNSPerStep is the timed steps' duration minus their children's,
// and minus the two clock reads each timed child added to its step.
func (s *stepStats) selfNSPerStep() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.stepNS-s.childNS-2*s.children*callCost) / float64(s.sampled)
}

func (s *stepStats) add(o stepStats) {
	s.steps += o.steps
	s.idle += o.idle
	s.sampled += o.sampled
	s.stepNS += o.stepNS
	s.childNS += o.childNS
	s.children += o.children
}

// stepCore runs core over src to maxInstr instructions the way
// cpu.CPU.Run does (Start, then Step until it returns false), timing
// one step in sampleMask+1 together with the generator and L2 calls
// made inside it, and classifying every step as idle or busy.
func stepCore(core *cpu.CPU, src *timedSource, l2 *timedLower, g *gate, maxInstr int64) stepStats {
	var st stepStats
	core.Start(src, maxInstr)
	prev := core.Result()
	for {
		timed := st.steps&sampleMask == 0
		var t0 time.Time
		var childNS, children int64
		if timed {
			childNS, children = src.l.ns+l2.l.ns, src.l.sampled+l2.l.sampled
			g.on = true
			t0 = time.Now()
		}
		nextBefore, l2Before := src.l.calls, l2.l.calls
		ok := core.Step()
		if timed {
			d := int64(time.Since(t0)) - intervalCost
			g.on = false
			if ok {
				st.sampled++
				st.stepNS += d
				st.childNS += src.l.ns + l2.l.ns - childNS
				st.children += src.l.sampled + l2.l.sampled - children
			}
		}
		if !ok {
			return st
		}
		st.steps++
		cur := core.Result()
		if cur.Instructions == prev.Instructions && cur.L1DAccesses == prev.L1DAccesses &&
			cur.L1IAccesses == prev.L1IAccesses && src.l.calls == nextBefore && l2.l.calls == l2Before {
			st.idle++
		}
		prev = cur
	}
}

// l1Replay replays a captured L1D stream through fresh caches of the
// core's L1 geometry, timing the access loop. It returns the median
// ns/access over reps and the hit count, which must equal the traced
// core's.
func l1Replay(refs []l1Ref, reps int) (nsPerAccess float64, hits int64) {
	var samples []float64
	for r := 0; r < reps; r++ {
		c := cache.MustNewCache(cpu.DefaultConfig().L1Geometry, cache.LRU, nil)
		t := time.Now()
		for _, ref := range refs {
			c.Access(ref.addr, ref.write)
		}
		samples = append(samples, float64(time.Since(t))/float64(len(refs)))
		hits = c.Hits
	}
	return summarize(samples).Median, hits
}

// span is one (simulation, layer) record of the traced run. The
// simulation's own span has no parent; its layers name it as parent.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	Calls   int64   `json:"calls,omitempty"`
	Sampled int64   `json:"sampled_calls,omitempty"`
	SumNS   float64 `json:"sum_ns"`
}

// spanLog keeps spans in memory; write saves them when the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// sim records a simulation's span and returns its id.
func (s *spanLog) sim(name string, start, end time.Time) int {
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{ID: id, Name: name,
		StartNS: int64(start.Sub(s.origin)), EndNS: int64(end.Sub(s.origin)),
		SumNS: float64(end.Sub(start))})
	return id
}

// layer adds one layer's span under the simulation parent.
func (s *spanLog) layer(parent int, name string, l *layer) {
	p := s.spans[parent-1]
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: parent, Name: name,
		StartNS: p.StartNS, EndNS: p.EndNS, Calls: l.calls, Sampled: l.sampled, SumNS: l.total()})
}

// write saves the spans as JSON lines under dir and returns the path.
func (s *spanLog) write(dir, workloadName string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workloadName, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// sameCounters reports whether two counter sets hold the same names and
// values.
func sameCounters(a, b *stats.Counters) bool {
	an, bn := a.Names(), b.Names()
	sort.Strings(an)
	sort.Strings(bn)
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if an[i] != bn[i] || a.Get(an[i]) != b.Get(bn[i]) {
			return false
		}
	}
	return true
}
