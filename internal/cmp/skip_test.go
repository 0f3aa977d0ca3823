package cmp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys/memtest"
	"nurapid/internal/obs"
	"nurapid/internal/workload"
)

// runLockstep is System.Run without idle skipping: every core steps
// every cycle, in the same rotating order. It returns the result and
// the number of cycles in which every running core was idle.
func runLockstep(s *System, srcs []workload.Source, maxInstrPerCore int64) (Result, int64) {
	for i := range s.cores {
		s.cores[i].Start(srcs[i], maxInstrPerCore)
	}
	n := len(s.cores)
	running := n
	finished := make([]bool, n)
	var allIdle int64
	for running > 0 {
		idle := true
		for i, c := range s.cores {
			if !finished[i] && c.NextEvent() == s.cycle {
				idle = false
			}
		}
		if idle {
			allIdle++
		}
		base := int(s.cycle % int64(n))
		for k := 0; k < n; k++ {
			i := (base + k) % n
			if finished[i] {
				continue
			}
			if s.cores[i].Done() || !s.cores[i].Step() {
				finished[i] = true
				running--
			}
		}
		s.cycle++
	}
	return s.Result(), allIdle
}

// TestRunSkipMatchesLockstep: System.Run, which jumps over cycles in
// which every core is idle, matches stepping every cycle in its result,
// queue snapshot and event trace (shared L2, queue and shoot-downs).
func TestRunSkipMatchesLockstep(t *testing.T) {
	for _, cores := range []int{2, 4} {
		for _, sharing := range []Sharing{Shared, Private} {
			t.Run(fmt.Sprintf("%d-%s", cores, sharing), func(t *testing.T) {
				run := func(skip bool) (Result, *System, []byte, int64) {
					var trace bytes.Buffer
					sys, err := New(newNuRAPID(t), Config{Cores: cores, Sharing: sharing, L1EnergyNJ: cacti.Default().L1NJ})
					if err != nil {
						t.Fatal(err)
					}
					sys.SetProbe(obs.NewTraceSink(&trace))
					srcs, err := sys.Sources(testApp(t), 1)
					if err != nil {
						t.Fatal(err)
					}
					if skip {
						return sys.Run(srcs, testInstr), sys, trace.Bytes(), 0
					}
					res, idle := runLockstep(sys, srcs, testInstr)
					return res, sys, trace.Bytes(), idle
				}
				got, gotSys, gotTrace, _ := run(true)
				want, wantSys, wantTrace, idle := run(false)
				if idle == 0 {
					t.Fatal("no cycle had every core idle; nothing to skip")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("skipping Run = %+v\nlockstep = %+v", got, want)
				}
				if !reflect.DeepEqual(gotSys.Queue().Snapshot(), wantSys.Queue().Snapshot()) {
					t.Fatal("queue snapshots differ")
				}
				if gotSys.cycle != wantSys.cycle {
					t.Fatalf("system clock %d, lockstep %d", gotSys.cycle, wantSys.cycle)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Fatal("shared-L2 event traces differ")
				}
			})
		}
	}
}

// sliceSource yields a fixed instruction list once.
type sliceSource []workload.Instr

func (s *sliceSource) Next() (workload.Instr, bool) {
	if len(*s) == 0 {
		return workload.Instr{}, false
	}
	in := (*s)[0]
	*s = (*s)[1:]
	return in, true
}

// TestCoresMergeAtQueueBlockSize: each core merges L1 misses per block
// of the shared level (Queue.BlockBytes), so loads to the two 64-B
// halves of a 128-B region reach the L2 twice at 64-B blocks and once
// at 128-B blocks.
func TestCoresMergeAtQueueBlockSize(t *testing.T) {
	for _, tc := range []struct {
		blockBytes int
		want       int
	}{{64, 2}, {128, 1}} {
		stub := memtest.NewStub(100)
		stub.Record = true
		sys, err := New(stub, Config{Cores: 1,
			Queue: QueueConfig{Banks: 8, BlockBytes: tc.blockBytes, Occupancy: 4, Cores: 1}})
		if err != nil {
			t.Fatal(err)
		}
		src := sliceSource{
			{Kind: workload.Load, PC: 0x400000, Addr: 0x10000000},
			{Kind: workload.Load, PC: 0x400004, Addr: 0x10000040},
		}
		sys.Run([]workload.Source{&src}, 2)
		data := 0
		for _, r := range stub.Reqs {
			if r.Addr >= 0x10000000 {
				data++
			}
		}
		if data != tc.want {
			t.Errorf("%d-B shared level: %d data requests, want %d", tc.blockBytes, data, tc.want)
		}
	}
}
