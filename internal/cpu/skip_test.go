package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"nurapid/internal/memsys/memtest"
	"nurapid/internal/workload"
)

// countingSource counts Next calls, so a state snapshot sees source
// traffic.
type countingSource struct {
	src   workload.Source
	calls int64
}

func (s *countingSource) Next() (workload.Instr, bool) {
	s.calls++
	return s.src.Next()
}

// coreState renders every piece of core state a cycle can change,
// except the clock itself.
func coreState(c *CPU, src *countingSource) string {
	return fmt.Sprint(c.committed, c.used, c.head, c.tail, c.lsqUsed, c.stallUntil,
		c.hasPending, c.pending, c.sourceDone, c.halted, c.curFetchBlock, c.l2Accesses, c.l1Energy,
		c.l1d.Accesses, c.l1d.Hits, c.l1d.Evictions, c.l1i.Accesses, c.l1i.Hits, c.l1dInvals,
		*c.mshr, src.calls)
}

// stepEveryCycle drives c with Start and one Step per cycle, never
// skipping. Before each Step it asks NextEvent whether the cycle is
// idle; an idle Step must change nothing but the clock. It returns the
// idle cycles counted by cause: the stallUntil holder (imiss, mshr,
// redirect), rob-full, lsq-full, budget or source-done.
func stepEveryCycle(t *testing.T, c *CPU, src workload.Source, maxInstr int64) map[string]int64 {
	t.Helper()
	cs := &countingSource{src: src}
	idle := map[string]int64{}
	stallCause := ""
	c.Start(cs, maxInstr)
	for {
		cycle, stall := c.cycle, c.stallUntil
		iMisses := c.l1i.Accesses - c.l1i.Hits
		isIdle := c.NextEvent() > cycle
		before, cause := "", ""
		if isIdle {
			before, cause = coreState(c, cs), idleCause(c, stallCause)
		}
		ok := c.Step()
		if isIdle {
			if !ok || c.cycle != cycle+1 {
				t.Fatalf("cycle %d: idle Step returned %v and moved the clock to %d", cycle, ok, c.cycle)
			}
			if after := coreState(c, cs); after != before {
				t.Fatalf("cycle %d (%s): idle Step changed state\nbefore %s\nafter  %s", cycle, cause, before, after)
			}
			idle[cause]++
		}
		if c.stallUntil != stall {
			switch {
			case c.l1i.Accesses-c.l1i.Hits != iMisses:
				stallCause = "imiss"
			case c.hasPending:
				stallCause = "mshr"
			default:
				stallCause = "redirect"
			}
		}
		if !ok {
			return idle
		}
	}
}

// idleCause names why dispatch is blocked in an idle cycle.
func idleCause(c *CPU, stallCause string) string {
	switch {
	case c.cycle < c.stallUntil:
		return stallCause
	case c.used == len(c.rob):
		return "rob-full"
	case !c.hasPending && c.sourceDone:
		return "source-done"
	case !c.hasPending:
		return "budget"
	default:
		return "lsq-full"
	}
}

// loadStream returns n loads from one PC, each to its own L1 and L2
// block, with every stride-th instruction a load and the rest ALU ops.
func loadStream(n, stride int) []workload.Instr {
	out := make([]workload.Instr, n)
	for i := range out {
		out[i] = workload.Instr{Kind: workload.ALU, PC: 0x400000 + uint64(i%8)*4}
		if i%stride == 0 {
			out[i] = workload.Instr{Kind: workload.Load, PC: 0x400000, Addr: 0x10000000 + uint64(i)*4096}
		}
	}
	return out
}

// TestRunSkipMatchesStepping: Run, which jumps over idle cycles, gives
// the same result, the same L2 request sequence and the same MSHR
// activity as stepping every cycle, on streams built to idle for each
// cause.
func TestRunSkipMatchesStepping(t *testing.T) {
	withCfg := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	fetchSpread := make([]workload.Instr, 4096)
	for i := range fetchSpread {
		fetchSpread[i] = workload.Instr{Kind: workload.ALU, PC: 0x400000 + uint64(i)*4096}
	}
	redirects := alus(16)
	redirects[7] = workload.Instr{Kind: workload.Branch, PC: 0x400000, Mispredicted: true}
	mcf, _ := workload.ByName("mcf")
	gzip, _ := workload.ByName("gzip")

	cases := []struct {
		name     string
		cfg      Config
		latency  int64
		src      func() workload.Source
		maxInstr int64
		cause    string // idle cause the stream must hit ("" = none required)
	}{
		{"rob-full", withCfg(func(c *Config) { c.ROB = 16 }), 200,
			func() workload.Source { return &fixedSource{instrs: loadStream(512, 32), loop: true} }, 4000, "rob-full"},
		{"lsq-full", withCfg(func(c *Config) { c.LSQ = 2 }), 200,
			func() workload.Source { return &fixedSource{instrs: loadStream(64, 1), loop: true} }, 500, "lsq-full"},
		{"mshr-full", withCfg(func(c *Config) { c.MSHRs = 2 }), 200,
			func() workload.Source { return &fixedSource{instrs: loadStream(64, 1), loop: true} }, 500, "mshr"},
		{"i-miss", DefaultConfig(), 50,
			func() workload.Source { return &fixedSource{instrs: fetchSpread, loop: true} }, 1000, "imiss"},
		{"redirect", DefaultConfig(), 10,
			func() workload.Source { return &fixedSource{instrs: redirects, loop: true} }, 5000, "redirect"},
		{"budget", DefaultConfig(), 200,
			func() workload.Source { return &fixedSource{instrs: loadStream(64, 4), loop: true} }, 50, "budget"},
		{"source-dry", DefaultConfig(), 200,
			func() workload.Source {
				return workload.Limit(&fixedSource{instrs: loadStream(64, 4), loop: true}, 300)
			}, 1 << 40, "source-done"},
		{"zero-budget", DefaultConfig(), 10,
			func() workload.Source { return &fixedSource{instrs: alus(8), loop: true} }, 0, ""},
		{"mcf", DefaultConfig(), 30,
			func() workload.Source { return workload.MustNewGenerator(mcf, 1) }, 40000, "mshr"},
		{"gzip", DefaultConfig(), 14,
			func() workload.Source { return workload.MustNewGenerator(gzip, 1) }, 40000, "imiss"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(skip bool) (Result, *memtest.Stub, *CPU, map[string]int64) {
				stub := memtest.NewStub(tc.latency)
				stub.Record = true
				c := MustNew(stub, WithConfig(tc.cfg), WithL1EnergyNJ(0.5))
				if skip {
					return c.Run(tc.src(), tc.maxInstr), stub, c, nil
				}
				idle := stepEveryCycle(t, c, tc.src(), tc.maxInstr)
				return c.Result(), stub, c, idle
			}
			got, gotL2, gotCPU, _ := run(true)
			want, wantL2, wantCPU, idle := run(false)
			if got != want {
				t.Fatalf("Run = %+v\nstepped = %+v", got, want)
			}
			if !reflect.DeepEqual(gotL2.Reqs, wantL2.Reqs) || gotL2.Accesses != wantL2.Accesses ||
				!reflect.DeepEqual(gotL2.PerCore, wantL2.PerCore) {
				t.Fatalf("L2 saw %d requests under Run, %d when stepped, or their sequence differs",
					gotL2.Accesses, wantL2.Accesses)
			}
			gm, wm := gotCPU.mshr, wantCPU.mshr
			if gm.Allocations != wm.Allocations || gm.Merges != wm.Merges || gm.FullStalls != wm.FullStalls {
				t.Fatalf("MSHR activity differs: Run %d/%d/%d, stepped %d/%d/%d",
					gm.Allocations, gm.Merges, gm.FullStalls, wm.Allocations, wm.Merges, wm.FullStalls)
			}
			if tc.cause != "" && idle[tc.cause] == 0 {
				t.Fatalf("stream never idled on %s; idle cycles by cause: %v", tc.cause, idle)
			}
			if tc.maxInstr == 0 && (got.Cycles != 0 || gotL2.Accesses != 0) {
				t.Fatalf("zero budget simulated %d cycles and %d L2 requests", got.Cycles, gotL2.Accesses)
			}
		})
	}
}

func TestAdvanceToPastNextEventPanics(t *testing.T) {
	c := MustNew(newStubL2(200))
	c.Start(&fixedSource{instrs: loadStream(64, 1), loop: true}, 1000)
	for c.NextEvent() == c.cycle {
		c.Step()
	}
	next := c.NextEvent()
	defer func() {
		if recover() == nil {
			t.Fatalf("AdvanceTo(%d) past NextEvent %d must panic", next+1, next)
		}
	}()
	c.AdvanceTo(next + 1)
}

// TestRunAllocatesNothing: a warmed core runs without heap allocation.
func TestRunAllocatesNothing(t *testing.T) {
	app, _ := workload.ByName("mcf")
	src := workload.MustNewGenerator(app, 1)
	c := MustNew(newStubL2(30), WithL1EnergyNJ(0.5))
	c.Run(src, 20000)
	allocs := testing.AllocsPerRun(5, func() {
		c.Run(src, c.Result().Instructions+10000)
	})
	if allocs != 0 {
		t.Fatalf("Run allocated %.1f times per call, want 0", allocs)
	}
}
