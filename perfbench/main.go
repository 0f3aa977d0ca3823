// Command perfbench is the simulator's benchmark: it times the
// experiments users run (Fig6, trace replay through every L2
// organization, the shared-L2 CMP) from the outside, through the sim
// package's public entry points, and checks that their outputs are
// correct. Run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload fig6 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of stdout carries the end-to-end metrics;
// with --trace 1 a separate traced pass adds per-layer metrics. See
// README.md for the metrics, the workloads and why they were chosen.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The tables below
// must match BENCHMARK.json, which main checks before running.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"cpu_ns_per_inst", "ns"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"workload.next_calls", "count"},
	{"workload.ns_per_next", "ns"},
	{"workload.tracegen_ns_per_request", "ns"},
	{"workload.table3_apki_rel_err", "ratio"},
	{"workload.table3_ipc_rel_err", "ratio"},
	{"cpu.step_calls", "count"},
	{"cpu.cycles", "count"},
	{"cpu.idle_cycle_frac", "ratio"},
	{"cpu.idle_cycle_frac.high", "ratio"},
	{"cpu.idle_cycle_frac.low", "ratio"},
	{"cpu.self_ns_per_step", "ns"},
	{"cpu.ipc", "inst/cycle"},
	{"cache.l1d_hit_ratio", "ratio"},
	{"cache.l1i_hit_ratio", "ratio"},
	{"cache.l1d_ns_per_access", "ns"},
	{"nurapid.ns_per_access", "ns"},
	{"nurapid.ns_per_access.demotion-only", "ns"},
	{"nurapid.ns_per_access.next-fastest", "ns"},
	{"nurapid.ns_per_access.fastest", "ns"},
	{"nurapid.ns_per_access.predictive", "ns"},
	{"nurapid.factory_ns", "ns"},
	{"nurapid.hit_ratio", "ratio"},
	{"nurapid.dgroup0_hit_frac", "ratio"},
	{"nurapid.demotions_per_access", "ratio"},
	{"nurapid.demotions_per_access.high", "ratio"},
	{"nurapid.promotions_per_access", "ratio"},
	{"nurapid.port_wait_cycles_per_access", "cycles"},
	{"nuca.ns_per_access", "ns"},
	{"nuca.ns_per_access.ss-performance", "ns"},
	{"nuca.ns_per_access.ss-energy", "ns"},
	{"nuca.hit_ratio", "ratio"},
	{"nuca.banks_per_access", "ratio"},
	{"uca.ns_per_access", "ns"},
	{"uca.l2_hit_ratio", "ratio"},
	{"uca.l3_hit_ratio", "ratio"},
	{"memsys.reads_per_kinst", "1/kinst"},
	{"memsys.writes_per_kinst", "1/kinst"},
	{"cmp.self_ns_per_cycle", "ns"},
	{"cmp.queue_wait_per_access", "cycles"},
	{"cmp.bank_busy_per_access", "cycles"},
	{"cmp.invals_per_kwrite", "1/kwrite"},
	{"cmp.fairness", "ratio"},
	{"sim.runs", "count"},
	{"sim.render_ns", "ns"},
	{"sim.error_rate", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// Set-up runs at least minSetups times, and more while the set-ups
// take under setupBudget in total (at most maxSetups); setup_s is their
// median, so a set-up of a few milliseconds still reads steadily.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
)

// minReps is the fewest timed repetitions a run makes, however long
// they take.
const minReps = 3

// bench is one benchmark workload. setUp prepares its inputs (it
// runs several times; the last result is kept). rep runs the timed
// workload once and checks its outputs. traced reruns it once through
// the layer decorators, checks the outputs against rep's, fills the
// per-layer metrics and returns the host seconds its simulations took.
// runs is the number of simulations in one rep.
type bench interface {
	sizes() map[string]any
	runs() int
	setUp() error
	rep() (repResult, error)
	traced(m metricSet, spans *spanLog) (float64, error)
}

// repResult is what one timed repetition did: simulated instructions
// and host time spent rendering the results.
type repResult struct {
	insts    int64
	renderNS float64
}

var workloads = map[string]func(seed uint64) bench{
	"fig6":       newFig6,
	"l2-replay":  newReplay,
	"cmp-shared": newCMPShared,
}

// metricSet collects reported values by metric name.
type metricSet map[string]float64

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fig6, l2-replay or cmp-shared")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "how long the timed repetitions run")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		return 2
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w := mk(*seed)
	sims := w.runs()
	ctx := map[string]any{"workload": *name, "seed": *seed, "seconds": *seconds,
		"trace": *trace, "host": newHostContext(), "sizes": w.sizes()}

	before, err := hostSpeed()
	if err != nil {
		return fail(ctx, 1, 1, err)
	}
	setups, err := timeSetUp(w)
	if err != nil {
		return fail(ctx, 1, 1, fmt.Errorf("set-up: %w", err))
	}
	s, err := timeReps(w, *seconds)
	attempted := len(s.wall) * sims
	if err != nil {
		return fail(ctx, attempted+sims, sims, fmt.Errorf("repetition %d: %w", len(s.wall)+1, err))
	}
	// One slowdown for the whole run, from the median of its kernel
	// speeds: the host's speed drifts over minutes, and a median of the
	// whole run's samples averages out the kernel's own second-to-second
	// noise, which the simulator does not share.
	speeds := summarize(append([]float64{before}, s.speeds...))
	slow := refSpeed / speeds.Median
	var setupsRef, minst, cpuNS []float64
	for _, v := range setups {
		setupsRef = append(setupsRef, v/slow)
	}
	for i := range s.wall {
		minst = append(minst, s.minst[i]*slow)
		cpuNS = append(cpuNS, s.cpuNS[i]/slow)
	}
	e2e := map[string]summary{
		"setup_s":         summarize(setupsRef),
		"minst_per_s":     summarize(minst),
		"cpu_ns_per_inst": summarize(cpuNS),
		"alloc_mb":        summarize(s.allocMB),
		"peak_rss_mb":     summarize(s.rss),
	}
	ctx["repetitions"] = len(s.wall)
	ctx["peak_rss_scope"] = s.rssScope
	ctx["simulations_per_repetition"] = sims
	ctx["summary"] = e2e
	ctx["unscaled"] = map[string]summary{"setup_s": summarize(setups),
		"minst_per_s": summarize(s.minst), "cpu_ns_per_inst": summarize(s.cpuNS)}
	ctx["reference_steps_per_s"] = refSpeed
	ctx["host_steps_per_s"] = speeds
	ctx["slowdown"] = slow

	out := metricSet{}
	defs := endToEnd
	if *trace == 0 {
		for k, v := range e2e {
			out[k] = v.Median
		}
	} else {
		defs = perLayer
		attempted += sims
		path, err := tracePass(w, s, slow, out, *name, *seed)
		if err != nil {
			return fail(ctx, attempted, sims, err)
		}
		ctx["spans"] = path
		ctx["clock_interval_ns"], ctx["clock_call_ns"] = intervalCost, callCost
	}
	ctx["error_rate"] = 0.0
	printJSON(os.Stdout, ctx)
	res := result{Correct: true, Attempted: attempted, Failed: 0, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out[d.name], Unit: d.unit}
	}
	printJSON(os.Stdout, res)
	return 0
}

// timeSetUp runs set-up at least minSetups times, and more while the
// set-ups take under setupBudget in total, up to maxSetups; it returns
// each set-up's seconds. Each starts after the heap's free memory has
// been returned to the OS, so each pays the page faults a fresh process
// pays, rather than whatever the collector happened to keep.
func timeSetUp(w bench) ([]float64, error) {
	var setups []float64
	for total := 0.0; len(setups) < minSetups || (total < setupBudget.Seconds() && len(setups) < maxSetups); {
		debug.FreeOSMemory()
		t := time.Now()
		if err := protect(w.setUp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		total += setups[len(setups)-1]
	}
	return setups, nil
}

// samples holds one value per timed repetition, in unscaled host time,
// and the kernel speeds measured before the first repetition and after
// each.
type samples struct {
	wall, minst, cpuNS, allocMB, rss, gcCycles, gcPause, render []float64
	speeds                                                      []float64
	rssScope                                                    string
}

// timeReps runs timed repetitions, tracing off, for about seconds and
// at least minReps times. Each starts from a collected heap and a reset
// peak resident set, so its peak is its own.
func timeReps(w bench, seconds float64) (samples, error) {
	s := samples{rssScope: "repetition"}
	sp, err := hostSpeed()
	if err != nil {
		return s, err
	}
	s.speeds = append(s.speeds, sp)
	start := time.Now()
	for len(s.wall) < minReps || time.Since(start).Seconds()+summarize(s.wall).Median <= seconds {
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			s.rssScope = "process"
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0, t0 := cpuTime(), time.Now()
		var r repResult
		err := protect(func() (err error) { r, err = w.rep(); return err })
		el, cpu := time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return s, err
		}
		if r.insts <= 0 || el <= 0 {
			return s, errors.New("impossible throughput: no instructions or no time")
		}
		sp, err := hostSpeed()
		if err != nil {
			return s, err
		}
		s.speeds = append(s.speeds, sp)
		s.wall = append(s.wall, el.Seconds())
		s.minst = append(s.minst, float64(r.insts)/el.Seconds()/1e6)
		s.cpuNS = append(s.cpuNS, float64(cpu.Nanoseconds())/float64(r.insts))
		s.allocMB = append(s.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		s.rss = append(s.rss, float64(peakRSSBytes())/(1<<20))
		s.gcCycles = append(s.gcCycles, float64(ms1.NumGC-ms0.NumGC))
		s.gcPause = append(s.gcPause, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		s.render = append(s.render, r.renderNS)
	}
	return s, nil
}

// tracePass runs the workload's traced pass, fills the per-layer
// metrics into out with host times divided by the run's slowdown,
// checks them, and writes the spans; it returns the spans' path.
func tracePass(w bench, s samples, slow float64, out metricSet, name string, seed uint64) (string, error) {
	calibrateClock()
	spans := newSpanLog()
	var tracedS float64
	if err := protect(func() (err error) { tracedS, err = w.traced(out, spans); return err }); err != nil {
		return "", fmt.Errorf("traced run: %w", err)
	}
	out["trace.overhead_frac"] = tracedS/summarize(s.wall).Median - 1
	// A traced pass cannot be faster than an untraced one. The host's
	// speed swings between repetitions, so only a traced pass more than
	// 5% faster than the fastest untraced repetition is taken as wrong.
	if fastest := slices.Min(s.wall); tracedS < 0.95*fastest {
		return "", fmt.Errorf("traced run took %.3fs, faster than every untraced repetition (fastest %.3fs)", tracedS, fastest)
	}
	out["sim.runs"] = float64(w.runs())
	out["sim.render_ns"] = summarize(s.render).Median
	out["sim.error_rate"] = 0
	// GC cycles are rare on some workloads, so these are means.
	out["runtime.gc_cycles"] = mean(s.gcCycles)
	out["runtime.gc_pause_ms"] = mean(s.gcPause)
	for _, d := range perLayer {
		if d.unit == "ns" || d.unit == "ms" {
			out[d.name] /= slow
		}
	}
	if err := checkPerLayer(out); err != nil {
		return "", err
	}
	path, err := spans.write(filepath.Join(".bench_build", "spans"), name, seed)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fail reports a failed correctness check or guard and returns the
// benchmark's failing exit code. The result line carries no metrics.
func fail(ctx map[string]any, attempted, failed int, err error) int {
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	ctx["error"] = err.Error()
	ctx["error_rate"] = float64(failed) / float64(attempted)
	printJSON(os.Stdout, ctx)
	printJSON(os.Stdout, result{Correct: false, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}})
	return 1
}

// protect runs f, turning a panic into an error.
func protect(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

func printJSON(f *os.File, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		return
	}
	f.Write(buf.Bytes())
}

// checkPerLayer applies the guards against impossible per-layer values
// that hold on every workload.
func checkPerLayer(m metricSet) error {
	for _, k := range []string{"cpu.idle_cycle_frac", "cpu.idle_cycle_frac.high", "cpu.idle_cycle_frac.low"} {
		if v := m[k]; v < 0 || v > 1 {
			return fmt.Errorf("%s = %g is outside [0, 1]", k, v)
		}
	}
	for k := range m {
		if !knownPerLayer(k) {
			return fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	return nil
}

func knownPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// checkManifest verifies that BENCHMARK.json declares exactly the
// metrics this program reports, with the same units.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the manifest: %w", err)
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit string }) error {
		w := make([]string, 0, len(want))
		for _, d := range want {
			w = append(w, d.name+" "+d.unit)
		}
		g := make([]string, 0, len(got))
		for _, d := range got {
			g = append(g, d.Name+" "+d.Unit)
		}
		sort.Strings(w)
		sort.Strings(g)
		if fmt.Sprint(w) != fmt.Sprint(g) {
			return fmt.Errorf("%s lists %s metrics %v; the program reports %v", path, kind, g, w)
		}
		return nil
	}
	if err := same("end_to_end", endToEnd, man.EndToEnd); err != nil {
		return err
	}
	return same("per_layer", perLayer, man.PerLayer)
}
