package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// cmpApps are two high-load apps and a low-load one.
var cmpApps = []string{"mcf", "art", "gzip"}

// cmpCores is the core count; every core runs the same stream, so
// every write that reaches the shared L2 shoots down the other's copy.
const cmpCores = 2

// cmpInsts is the instruction budget of each core.
const cmpInsts = 2_000_000

// cmpOrgs is the run set of sim.Runner.CMP.
func cmpOrgs() []namedOrg {
	return []namedOrg{
		{org: sim.Base()},
		{sim.DNUCA(nuca.DefaultConfig()), "nuca.ns_per_access.ss-performance"},
		{sim.NuRAPID(nurapid.DefaultConfig()), "nurapid.ns_per_access.next-fastest"},
	}
}

type cmpShared struct {
	seed  uint64
	model *cacti.Model
	apps  []workload.App
	ref   []byte
	last  *sim.Runner
}

func newCMPShared(seed uint64) bench { return &cmpShared{seed: seed} }

func (c *cmpShared) runs() int { return len(cmpApps) * len(cmpOrgs()) }

func (c *cmpShared) sizes() map[string]any {
	return map[string]any{"apps": cmpApps, "organizations": len(cmpOrgs()), "cores": cmpCores,
		"sharing": cmp.Shared.String(), "instructions_per_core": cmpInsts,
		"simulations_per_repetition": c.runs()}
}

func (c *cmpShared) setUp() error {
	apps, err := resolveApps(cmpApps)
	if err != nil {
		return err
	}
	model := cacti.Default()
	if err := preflight(model, cmpOrgs()); err != nil {
		return err
	}
	c.model, c.apps = model, apps
	return nil
}

func (c *cmpShared) rep() (repResult, error) {
	r := sim.NewRunner(sim.WithModel(c.model), sim.WithApps(c.apps...), sim.WithSeed(c.seed),
		sim.WithInstructions(cmpInsts), sim.WithWorkers(1),
		sim.WithCores(cmpCores), sim.WithSharing(cmp.Shared))
	e := r.CMP()
	t := time.Now()
	var buf bytes.Buffer
	if err := e.Render(&buf, false); err != nil {
		return repResult{}, fmt.Errorf("rendering cmp: %w", err)
	}
	res := repResult{renderNS: float64(time.Since(t))}
	if err := sameBytes(&c.ref, buf.Bytes(), "rendered cmp"); err != nil {
		return res, err
	}
	for _, app := range c.apps {
		for _, no := range cmpOrgs() {
			run := r.RunCMP(app, no.org)
			for i, core := range run.Res.Cores {
				name := fmt.Sprintf("%s/%s core %d", app.Name, no.org.Key, i)
				if err := checkCore(name, core, cmpInsts, run.Res.PerCore[i].Accesses); err != nil {
					return res, err
				}
			}
			res.insts += run.Res.Instructions
		}
	}
	c.last = r
	return res, nil
}

// traced rebuilds each CMP simulation the way sim.Runner.RunCMP does,
// with the shared organization and the cores' sources decorated, and
// times cmp.System.Run as the parent span.
func (c *cmpShared) traced(m metricSet, spans *spanLog) (float64, error) {
	aggs := l2Aggs{}
	var next layer
	var cpuRes cpu.Result
	var selfNS float64
	var cycles, accesses, writes, stalls, invals, memReads, memWrites int64
	var busy float64
	var fairness []float64
	elapsed := 0.0
	for _, app := range c.apps {
		for _, no := range cmpOrgs() {
			var l2, src layer
			var built []*timedLower
			org := timedOrg(no.org, nil, &aggs.get(family(no.org)).factory, &l2, &built)

			t0 := time.Now()
			mem := memsys.NewMemory(org.BlockBytes)
			ll := org.Factory(c.model, mem)
			sys, err := cmp.New(ll, cmp.Config{
				Cores:      cmpCores,
				Sharing:    cmp.Shared,
				L1EnergyNJ: c.model.L1NJ,
				Queue:      cmp.QueueConfig{Banks: 8, BlockBytes: org.BlockBytes, Occupancy: 4, Cores: cmpCores},
			})
			if err != nil {
				return 0, fmt.Errorf("building the cmp system: %w", err)
			}
			srcs, err := sys.Sources(app, c.seed)
			if err != nil {
				return 0, fmt.Errorf("building the cmp sources: %w", err)
			}
			for i := range srcs {
				srcs[i] = &timedSource{inner: srcs[i], l: &src}
			}
			tr := time.Now()
			res := sys.Run(srcs, cmpInsts)
			t1 := time.Now()
			elapsed += t1.Sub(t0).Seconds()

			name := app.Name + "/" + no.org.Key
			ref := c.last.RunCMP(app, no.org)
			queue := sys.Queue().Snapshot()
			if !reflect.DeepEqual(res, ref.Res) || ll.EnergyNJ() != ref.L2EnergyNJ ||
				mem.EnergyNJ() != ref.MemEnergyNJ || !reflect.DeepEqual(queue, ref.QueueMetrics) {
				return 0, fmt.Errorf("%s: traced cmp run differs from the untraced one", name)
			}

			// System.Run's self time: its span minus the extrapolated
			// generator and L2 time, and minus the two clock reads each
			// timed child call added to it.
			run := float64(t1.Sub(tr))
			selfNS += run - src.total() - l2.total() - float64(2*(src.sampled+l2.sampled)*callCost)
			id := spans.sim(name, t0, t1)
			spans.layer(id, "cmp.System.Run", &layer{calls: 1, sampled: 1, ns: int64(run)})
			spans.layer(id, "workload.Source.Next", &src)
			spans.layer(id, "memsys.LowerLevel.Access", &l2)

			next.add(&src)
			aggs.absorb(no, app, ll, &l2)
			for _, cr := range res.Cores {
				addCPU(&cpuRes, cr)
			}
			for _, pc := range res.PerCore {
				accesses += pc.Accesses
				writes += pc.Writes
				stalls += pc.StallCycles
			}
			busy += kv(queue, "queue_busy_cycles")
			cycles += res.Cycles
			invals += res.Invalidations
			fairness = append(fairness, res.Fairness)
			memReads += mem.Accesses - mem.Writes
			memWrites += mem.Writes
		}
	}
	m["workload.next_calls"] = float64(next.calls)
	m["workload.ns_per_next"] = next.nsPerCall()
	emitCPU(m, cpuRes)
	m["cmp.self_ns_per_cycle"] = selfNS / float64(cycles)
	m["cmp.queue_wait_per_access"] = ratio(stalls, accesses)
	m["cmp.bank_busy_per_access"] = busy / float64(accesses)
	m["cmp.invals_per_kwrite"] = 1000 * ratio(invals, writes)
	m["cmp.fairness"] = mean(fairness)
	m["memsys.reads_per_kinst"] = 1000 * ratio(memReads, cpuRes.Instructions)
	m["memsys.writes_per_kinst"] = 1000 * ratio(memWrites, cpuRes.Instructions)
	aggs.emit(m)
	return elapsed, nil
}

// kv returns the value named name in a snapshot, or 0.
func kv(s []stats.KV, name string) float64 {
	for _, e := range s {
		if e.Name == name {
			return e.Value
		}
	}
	return 0
}
