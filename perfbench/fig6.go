package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// fig6Apps mixes high-load apps (mcf, art), which stall often, with
// low-load ones (gzip, gap), which mostly hit the L1s.
var fig6Apps = []string{"mcf", "art", "gzip", "gap"}

// fig6Insts is the instruction budget per simulation: enough for
// NuRAPID's d-groups to fill and demote on the high-load apps.
const fig6Insts = 2_000_000

// fig6Orgs is the run set of sim.Runner.Fig6: the base hierarchy, the
// three NuRAPID promotion policies and the ideal bound.
func fig6Orgs() []namedOrg {
	policy := func(p nurapid.Promotion) namedOrg {
		cfg := nurapid.DefaultConfig()
		cfg.Promotion = p
		return namedOrg{sim.NuRAPID(cfg), "nurapid.ns_per_access." + p.String()}
	}
	return []namedOrg{
		{org: sim.Base()},
		policy(nurapid.DemotionOnly),
		policy(nurapid.NextFastest),
		policy(nurapid.Fastest),
		{org: sim.Ideal()},
	}
}

type fig6 struct {
	seed  uint64
	model *cacti.Model
	apps  []workload.App
	ref   []byte      // the first repetition's rendered figure
	last  *sim.Runner // the last repetition, holding its memoized runs
}

func newFig6(seed uint64) bench { return &fig6{seed: seed} }

func (f *fig6) runs() int { return len(fig6Apps) * len(fig6Orgs()) }

func (f *fig6) sizes() map[string]any {
	return map[string]any{"apps": fig6Apps, "organizations": len(fig6Orgs()),
		"instructions_per_simulation": fig6Insts, "simulations_per_repetition": f.runs()}
}

func (f *fig6) setUp() error {
	apps, err := resolveApps(fig6Apps)
	if err != nil {
		return err
	}
	model := cacti.Default()
	if err := preflight(model, fig6Orgs()); err != nil {
		return err
	}
	f.model, f.apps = model, apps
	return nil
}

func (f *fig6) rep() (repResult, error) {
	r := sim.NewRunner(sim.WithModel(f.model), sim.WithApps(f.apps...), sim.WithSeed(f.seed),
		sim.WithInstructions(fig6Insts), sim.WithWorkers(1))
	e := r.Fig6()
	t := time.Now()
	var buf bytes.Buffer
	if err := e.Render(&buf, false); err != nil {
		return repResult{}, fmt.Errorf("rendering fig6: %w", err)
	}
	res := repResult{renderNS: float64(time.Since(t))}
	if err := sameBytes(&f.ref, buf.Bytes(), "rendered fig6"); err != nil {
		return res, err
	}
	for _, app := range f.apps {
		for _, no := range fig6Orgs() {
			run := r.Run(app, no.org)
			if err := checkCore(app.Name+"/"+no.org.Key, run.CPU, fig6Insts, run.L2Ctrs.Get("accesses")); err != nil {
				return res, err
			}
			res.insts += run.CPU.Instructions
		}
	}
	f.last = r
	return res, nil
}

// traced reruns every simulation of the last repetition with the
// layers decorated, driving the core through Start/Step itself.
func (f *fig6) traced(m metricSet, spans *spanLog) (float64, error) {
	g := &gate{}
	aggs := l2Aggs{}
	var next layer
	var steps, high, low stepStats
	var cpuRes cpu.Result
	var memReads, memWrites int64
	var apkiErr, ipcErr []float64
	var l1refs []l1Ref
	var l1Hits int64
	elapsed := 0.0
	for _, app := range f.apps {
		for _, no := range fig6Orgs() {
			var l2 layer
			var built []*timedLower
			org := timedOrg(no.org, g, &aggs.get(family(no.org)).factory, &l2, &built)
			var src layer
			capture := l1refs == nil && app.Class == workload.HighLoad
			ts := &timedSource{inner: workload.MustNewGenerator(app, f.seed), l: &src, g: g}
			if capture {
				ts.capture = &l1refs
			}

			t0 := time.Now()
			mem := memsys.NewMemory(org.BlockBytes)
			ll := org.Factory(f.model, mem)
			core := cpu.MustNew(ll, cpu.WithL1EnergyNJ(f.model.L1NJ))
			st := stepCore(core, ts, built[0], g, fig6Insts)
			t1 := time.Now()
			elapsed += t1.Sub(t0).Seconds()

			name := app.Name + "/" + no.org.Key
			res := core.Result()
			ref := f.last.Run(app, no.org)
			if res != ref.CPU || !sameCounters(ll.Counters(), &ref.L2Ctrs) ||
				ll.EnergyNJ() != ref.L2EnergyNJ || mem.EnergyNJ() != ref.MemEnergyNJ {
				return 0, fmt.Errorf("%s: traced run differs from the untraced one", name)
			}
			if w := int64(cpu.DefaultConfig().Width); st.steps < res.Instructions/w {
				return 0, fmt.Errorf("%s: %d steps cannot retire %d instructions at width %d", name, st.steps, res.Instructions, w)
			}
			if capture {
				if int64(len(l1refs)) < res.L1DAccesses {
					return 0, fmt.Errorf("%s: %d L1D accesses from %d loads and stores", name, res.L1DAccesses, len(l1refs))
				}
				l1refs = l1refs[:res.L1DAccesses]
				l1Hits = res.L1DAccesses - res.L1DMisses
			}

			id := spans.sim(name, t0, t1)
			spans.layer(id, "workload.Source.Next", &src)
			spans.layer(id, "memsys.LowerLevel.Access", &l2)
			spans.layer(id, "cpu.CPU.Step", &layer{calls: st.steps, sampled: st.sampled, ns: st.stepNS})

			next.add(&src)
			aggs.absorb(no, app, ll, &l2)
			steps.add(st)
			if app.Class == workload.HighLoad {
				high.add(st)
			} else {
				low.add(st)
			}
			addCPU(&cpuRes, res)
			memReads += mem.Accesses - mem.Writes
			memWrites += mem.Writes
			if no.org.Key == sim.Base().Key {
				apkiErr = append(apkiErr, math.Abs(res.APKI-app.TableAPKI)/app.TableAPKI)
				ipcErr = append(ipcErr, math.Abs(res.IPC-app.TableIPC)/app.TableIPC)
			}
		}
	}

	l1ns, hits := l1Replay(l1refs, 5)
	if hits != l1Hits {
		return 0, fmt.Errorf("standalone L1D replay hit %d of %d accesses; the traced core hit %d", hits, len(l1refs), l1Hits)
	}
	m["cache.l1d_ns_per_access"] = l1ns
	m["workload.next_calls"] = float64(next.calls)
	m["workload.ns_per_next"] = next.nsPerCall()
	m["workload.table3_apki_rel_err"] = mean(apkiErr)
	m["workload.table3_ipc_rel_err"] = mean(ipcErr)
	m["cpu.step_calls"] = float64(steps.steps)
	m["cpu.idle_cycle_frac"] = ratio(steps.idle, steps.steps)
	m["cpu.idle_cycle_frac.high"] = ratio(high.idle, high.steps)
	m["cpu.idle_cycle_frac.low"] = ratio(low.idle, low.steps)
	m["cpu.self_ns_per_step"] = steps.selfNSPerStep()
	emitCPU(m, cpuRes)
	m["memsys.reads_per_kinst"] = 1000 * ratio(memReads, cpuRes.Instructions)
	m["memsys.writes_per_kinst"] = 1000 * ratio(memWrites, cpuRes.Instructions)
	aggs.emit(m)
	if m["nurapid.demotions_per_access.high"] == 0 {
		return 0, fmt.Errorf("NuRAPID never demoted on the high-load apps: %d instructions do not fill the d-groups", fig6Insts)
	}
	return elapsed, nil
}

// checkCore checks one core's run: it retired its whole budget, and
// every L2 request it counted reached the organization.
func checkCore(name string, r cpu.Result, budget, l2Accesses int64) error {
	if r.Instructions != budget {
		return fmt.Errorf("%s: retired %d of %d instructions", name, r.Instructions, budget)
	}
	if r.L2Accesses != l2Accesses {
		return fmt.Errorf("%s: the core issued %d L2 requests, the L2 counted %d", name, r.L2Accesses, l2Accesses)
	}
	return nil
}

// addCPU sums the count fields of r into sum.
func addCPU(sum *cpu.Result, r cpu.Result) {
	sum.Instructions += r.Instructions
	sum.Cycles += r.Cycles
	sum.L1DAccesses += r.L1DAccesses
	sum.L1DMisses += r.L1DMisses
	sum.L1IAccesses += r.L1IAccesses
	sum.L1IMisses += r.L1IMisses
}

// emitCPU reports the core's simulated counts summed over the run.
func emitCPU(m metricSet, sum cpu.Result) {
	m["cpu.cycles"] = float64(sum.Cycles)
	m["cpu.ipc"] = ratio(sum.Instructions, sum.Cycles)
	m["cache.l1d_hit_ratio"] = 1 - ratio(sum.L1DMisses, sum.L1DAccesses)
	m["cache.l1i_hit_ratio"] = 1 - ratio(sum.L1IMisses, sum.L1IAccesses)
}

// sameBytes keeps the first b in *ref and checks later ones against it.
func sameBytes(ref *[]byte, b []byte, what string) error {
	if *ref == nil {
		*ref = append([]byte(nil), b...)
		return nil
	}
	if !bytes.Equal(*ref, b) {
		return fmt.Errorf("%s differs between repetitions", what)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
