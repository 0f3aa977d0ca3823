package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// replayApps are two high-load roster apps and the synthetic streaming
// app, whose 24 MB footprint is three times the L2, with the number of
// requests extracted for each: enough for NuRAPID to demote (stream's
// 2 M requests make about 100 k demotions).
var replayApps = []struct {
	name     string
	requests int
}{{"mcf", 1_000_000}, {"art", 1_000_000}, {"stream", 2_000_000}}

// replayOrgs are the L2 organizations every trace is replayed through.
func replayOrgs() []namedOrg {
	pred := nurapid.DefaultConfig()
	pred.Promotion = nurapid.PredictiveBypass
	pred.Distance = nurapid.DeadOnArrival
	pred.Memoize = true
	energy := nuca.DefaultConfig()
	energy.Policy = nuca.SSEnergy
	return []namedOrg{
		{org: sim.Base()},
		{sim.NuRAPID(nurapid.DefaultConfig()), "nurapid.ns_per_access.next-fastest"},
		{sim.NuRAPID(pred), "nurapid.ns_per_access.predictive"},
		{sim.DNUCA(nuca.DefaultConfig()), "nuca.ns_per_access.ss-performance"},
		{sim.DNUCA(energy), "nuca.ns_per_access.ss-energy"},
	}
}

type replay struct {
	seed   uint64
	model  *cacti.Model
	apps   []workload.App
	traces []sim.Trace
	hashes []uint64          // the first set-up's trace hashes
	ref    map[string]uint64 // the first repetition's fingerprints
}

func newReplay(seed uint64) bench { return &replay{seed: seed, ref: map[string]uint64{}} }

func (r *replay) runs() int { return len(replayApps) * len(replayOrgs()) }

func (r *replay) sizes() map[string]any {
	requests := map[string]int{}
	for _, a := range replayApps {
		requests[a.name] = a.requests
	}
	return map[string]any{"requests_per_trace": requests, "organizations": len(replayOrgs()),
		"simulations_per_repetition": r.runs()}
}

// setUp extracts one trace per app. Every set-up must extract the same
// requests.
func (r *replay) setUp() error {
	names := make([]string, len(replayApps))
	for i, a := range replayApps {
		names[i] = a.name
	}
	apps, err := resolveApps(names)
	if err != nil {
		return err
	}
	model := cacti.Default()
	if err := preflight(model, replayOrgs()); err != nil {
		return err
	}
	// Free the previous set-up's traces first, so repeated set-ups do
	// not stack up in the peak resident set.
	r.traces = nil
	runtime.GC()
	traces := make([]sim.Trace, len(apps))
	hashes := make([]uint64, len(apps))
	for i, app := range apps {
		traces[i] = sim.ExtractTraceApp(app, r.seed, replayApps[i].requests)
		hashes[i] = hashTrace(traces[i])
		if r.hashes != nil && hashes[i] != r.hashes[i] {
			return fmt.Errorf("%s: set-up extracted a different trace than before", app.Name)
		}
	}
	r.model, r.apps, r.traces, r.hashes = model, apps, traces, hashes
	return nil
}

func (r *replay) rep() (repResult, error) {
	var res repResult
	var buf bytes.Buffer
	for i, app := range r.apps {
		t := r.traces[i]
		for _, no := range replayOrgs() {
			out := sim.ReplayTrace(r.model, no.org, t)
			if err := r.check(app.Name+"/"+no.org.Key, out, t); err != nil {
				return res, err
			}
			res.insts += t.Instructions
			buf.Reset()
			t0 := time.Now()
			if err := out.WriteText(&buf); err != nil {
				return res, fmt.Errorf("rendering the replay: %w", err)
			}
			res.renderNS += float64(time.Since(t0))
		}
	}
	return res, nil
}

// check verifies one replay: every request reached the organization,
// and the fingerprint matches every other repetition's.
func (r *replay) check(name string, out *sim.ReplayResult, t sim.Trace) error {
	if out.Requests != int64(len(t.Reqs)) || out.Ctrs.Get("accesses") != out.Requests {
		return fmt.Errorf("%s: replayed %d of %d requests, the L2 counted %d", name, out.Requests, len(t.Reqs), out.Ctrs.Get("accesses"))
	}
	fp := out.Fingerprint()
	if want, ok := r.ref[name]; !ok {
		r.ref[name] = fp
	} else if fp != want {
		return fmt.Errorf("%s: replay fingerprint %x differs from %x", name, fp, want)
	}
	return nil
}

// traced extracts the traces again through a timed source, then replays
// each through decorated organizations.
func (r *replay) traced(m metricSet, spans *spanLog) (float64, error) {
	var next layer
	var tracegen time.Duration
	for i, app := range r.apps {
		var src layer
		ts := &timedSource{inner: workload.MustNewGenerator(app, r.seed), l: &src}
		t0 := time.Now()
		t := sim.ExtractTraceSource(ts, replayApps[i].requests)
		t1 := time.Now()
		tracegen += t1.Sub(t0)
		if hashTrace(t) != r.hashes[i] {
			return 0, fmt.Errorf("%s: traced extraction differs from set-up's", app.Name)
		}
		id := spans.sim(app.Name+"/extract", t0, t1)
		spans.layer(id, "workload.Source.Next", &src)
		next.add(&src)
	}

	aggs := l2Aggs{}
	var insts, memReads, memWrites int64
	elapsed := 0.0
	for i, app := range r.apps {
		t := r.traces[i]
		for _, no := range replayOrgs() {
			var l2 layer
			var built []*timedLower
			org := timedOrg(no.org, nil, &aggs.get(family(no.org)).factory, &l2, &built)
			t0 := time.Now()
			out := sim.ReplayTrace(r.model, org, t)
			t1 := time.Now()
			elapsed += t1.Sub(t0).Seconds()

			name := app.Name + "/" + no.org.Key
			if err := r.check(name, out, t); err != nil {
				return 0, fmt.Errorf("traced replay: %w", err)
			}
			if built[0].batches == 0 {
				return 0, fmt.Errorf("%s: the replay never reached AccessMany", name)
			}
			id := spans.sim(name, t0, t1)
			spans.layer(id, "memsys.LowerLevel.AccessMany", &l2)

			// The organization's time on this workload is the whole
			// ReplayTrace call per request.
			aggs.absorb(no, app, built[0], &layer{calls: out.Requests, sampled: out.Requests, ns: int64(t1.Sub(t0))})
			insts += t.Instructions
			memReads += out.MemReads
			memWrites += out.MemWrites
		}
	}

	var requests int64
	for _, t := range r.traces {
		requests += int64(len(t.Reqs))
	}
	m["workload.next_calls"] = float64(next.calls)
	m["workload.ns_per_next"] = next.nsPerCall()
	m["workload.tracegen_ns_per_request"] = float64(tracegen) / float64(requests)
	m["memsys.reads_per_kinst"] = 1000 * ratio(memReads, insts)
	m["memsys.writes_per_kinst"] = 1000 * ratio(memWrites, insts)
	aggs.emit(m)
	if m["nurapid.demotions_per_access"] == 0 {
		return 0, errors.New("NuRAPID never demoted: the traces are too short to fill the d-groups")
	}
	return elapsed, nil
}

// hashTrace folds a trace's requests and accounting into one value.
func hashTrace(t sim.Trace) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, q := range t.Reqs {
		put(q.Addr)
		put(uint64(q.Gap))
		if q.Write {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(t.TailGap))
	put(uint64(t.Instructions))
	return h.Sum64()
}
