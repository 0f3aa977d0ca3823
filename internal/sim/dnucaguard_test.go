package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/obs"
	"nurapid/internal/workload"
)

// dnucaGolden pins one (trace, search policy) cell of D-NUCA three
// ways: the replay fingerprint (counters, final clock, energy, memory
// traffic), a hash of every access's (Hit, Group, DoneAt), and a hash
// of the JSONL observability event stream. A zero fingerprint means
// the cell's fingerprint is pinned by replayGoldens instead.
type dnucaGolden struct {
	fingerprint, outcomes, events uint64
}

// dnucaGoldens cover all three search policies on three fixed-seed
// traces: mcf's 40k requests (the replay guard's trace), 200k requests
// of the streaming app, whose footprint overflows the L2 so the stream
// exercises evictions and dirty writebacks, and dnucaConflictTrace,
// which fills whole sets and makes partial tags collide. Regenerate an
// intended change with:
//
//	REPLAY_PRINT_GOLDENS=1 go test ./internal/sim -run TestDNUCAGuard -v
var dnucaGoldens = map[string]dnucaGolden{
	"mcf/ss-performance":      {0, 0xd45f3ba8109c351c, 0xf73d7492e4158620},
	"mcf/ss-energy":           {0, 0x9cdffba6b7671bb4, 0xa45c5124c0552f8c},
	"mcf/incremental":         {0, 0x1ae4d7846a08beb4, 0x9c49b96e131bfa3c},
	"stream/ss-performance":   {0xdba02aae19f548e6, 0xf2ef057fbfa955d6, 0x861678df60e3d5c0},
	"stream/ss-energy":        {0x7b1ad85e985b741d, 0x280de3544f4ff063, 0x44e58c1c8e55b2fc},
	"stream/incremental":      {0x6c52d4bdb0376c1e, 0x7350bfa43da8f7b0, 0x8500b28e55e26861},
	"conflict/ss-performance": {0xdf40c907ba374881, 0x4eb1c3c92cf934e2, 0x3089bcce6a90f039},
	"conflict/ss-energy":      {0xde3544fcd9f06a7b, 0x1064bcbfc6a0ae2b, 0xd8cf9774d7fe7c1a},
	"conflict/incremental":    {0xecc4f0b85120c177, 0xea67202163a01bc1, 0xa03068c5eff37db4},
}

// dnucaConflictTrace is a synthetic stream over 64 sets of the default
// geometry. Three quarters of its requests go to 12 hot tags per set,
// which climb to the fast groups and keep them full, so bubble swaps
// and victim choice depend on recency. The rest go to 64 cold tags
// whose low 7 bits pair them up, so misses meet false partial matches.
// The extracted app traces make none: their data footprints span fewer
// than 128 tags per set, so a data address's partial tag is its tag.
func dnucaConflictTrace(n int) []memsys.Request {
	cfg := nuca.DefaultConfig()
	sets := int(cfg.CapacityBytes) / cfg.BlockBytes / cfg.Assoc
	rng := mathx.NewRNG(5)
	reqs := make([]memsys.Request, n)
	for i := range reqs {
		set, tag := rng.Intn(64), rng.Intn(12)
		if rng.Bool(0.25) {
			tag = 12 + rng.Intn(32) + 128*rng.Intn(2)
		}
		reqs[i] = memsys.Request{
			Addr:  uint64(tag*sets+set) * uint64(cfg.BlockBytes),
			Write: rng.Bool(0.3),
			Gap:   int64(rng.Intn(4)),
		}
	}
	return reqs
}

func TestDNUCAGuard(t *testing.T) {
	model := cacti.Default()
	printGoldens := os.Getenv("REPLAY_PRINT_GOLDENS") != ""
	traces := []struct {
		name string
		reqs []memsys.Request
	}{{"mcf", dnucaAppTrace(t, "mcf", 40000)}, {"stream", dnucaAppTrace(t, "stream", 200000)}, {"conflict", dnucaConflictTrace(100000)}}
	for _, tr := range traces {
		for _, policy := range []nuca.SearchPolicy{nuca.SSPerformance, nuca.SSEnergy, nuca.Incremental} {
			cfg := nuca.DefaultConfig()
			cfg.Policy = policy
			key := tr.name + "/" + policy.String()
			t.Run(key, func(t *testing.T) {
				res := Replay(model, DNUCA(cfg), tr.reqs)
				if tr.name != "mcf" && (res.Ctrs.Get("evictions") == 0 || res.Ctrs.Get("writebacks") == 0) {
					t.Fatalf("made %d evictions and %d writebacks; the guard needs both",
						res.Ctrs.Get("evictions"), res.Ctrs.Get("writebacks"))
				}
				if tr.name == "conflict" && policy != nuca.Incremental && res.Ctrs.Get("false_partial_hits") == 0 {
					t.Fatal("made no false partial hits; the guard needs them")
				}
				got := dnucaGolden{outcomes: dnucaOutcomeHash(model, cfg, tr.reqs), events: dnucaEventHash(t, model, cfg, tr.reqs)}
				if tr.name != "mcf" {
					got.fingerprint = res.Fingerprint()
				}
				if printGoldens {
					fmt.Printf("\t%q: {%#016x, %#016x, %#016x},\n", key, got.fingerprint, got.outcomes, got.events)
					return
				}
				want, ok := dnucaGoldens[key]
				if !ok {
					t.Fatalf("no golden for %s (set REPLAY_PRINT_GOLDENS=1 to generate)", key)
				}
				if got != want {
					t.Fatalf("got {fingerprint %#016x, outcomes %#016x, events %#016x}, "+
						"want {%#016x, %#016x, %#016x}: D-NUCA's observable behaviour changed",
						got.fingerprint, got.outcomes, got.events, want.fingerprint, want.outcomes, want.events)
				}
			})
		}
	}
}

func dnucaAppTrace(t *testing.T, name string, requests int) []memsys.Request {
	t.Helper()
	app, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("%s workload model missing", name)
	}
	return ExtractTrace(app, 1, requests)
}

// dnucaOutcomeHash replays reqs through a fresh cache on the batched
// path and folds every access's (Hit, Group, DoneAt) into one FNV-64.
func dnucaOutcomeHash(model *cacti.Model, cfg nuca.Config, reqs []memsys.Request) uint64 {
	c := nuca.MustNew(cfg, model, memsys.NewMemory(cfg.BlockBytes))
	out := make([]memsys.AccessResult, len(reqs))
	c.AccessMany(0, reqs, out)
	h := fnv.New64a()
	var rec [17]byte
	for _, r := range out {
		rec[0] = 0
		if r.Hit {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint64(rec[1:], uint64(r.Group))
		binary.LittleEndian.PutUint64(rec[9:], uint64(r.DoneAt))
		h.Write(rec[:])
	}
	return h.Sum64()
}

// dnucaEventHash replays reqs through a fresh cache with a JSONL trace
// sink attached and returns the FNV-64 of the event stream's bytes.
func dnucaEventHash(t *testing.T, model *cacti.Model, cfg nuca.Config, reqs []memsys.Request) uint64 {
	t.Helper()
	c := nuca.MustNew(cfg, model, memsys.NewMemory(cfg.BlockBytes))
	h := fnv.New64a()
	sink := obs.NewTraceSink(h)
	c.SetProbe(sink)
	c.AccessMany(0, reqs, nil)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}
