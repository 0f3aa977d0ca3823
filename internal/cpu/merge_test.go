package cpu

import (
	"testing"

	"nurapid/internal/workload"
)

// TestMSHRMergeFollowsLowerBlockSize: two loads to the 64-B halves of
// one 128-B region miss in separate L1 blocks. They merge into one MSHR
// (one L2 request) exactly when the lower level's block covers both.
func TestMSHRMergeFollowsLowerBlockSize(t *testing.T) {
	halves := []workload.Instr{
		{Kind: workload.Load, PC: 0x400000, Addr: 0x10000000},
		{Kind: workload.Load, PC: 0x400004, Addr: 0x10000040},
	}
	for _, tc := range []struct {
		blockBytes int
		want       int64 // data requests reaching the lower level
	}{{64, 2}, {128, 1}, {256, 1}} {
		stub := newStubL2(100)
		stub.Record = true
		c := MustNew(stub, WithLowerBlockBytes(tc.blockBytes))
		res := c.Run(&fixedSource{instrs: halves}, 2)
		if res.L1DMisses != 2 {
			t.Fatalf("%d B: %d L1D misses, want 2", tc.blockBytes, res.L1DMisses)
		}
		data := int64(0)
		for _, r := range stub.Reqs {
			if r.Addr >= 0x10000000 {
				data++
			}
		}
		if data != tc.want {
			t.Errorf("%d-B lower level: %d data requests, want %d", tc.blockBytes, data, tc.want)
		}
	}
}

// TestDeviationStaleMSHREntryAbsorbsMiss pins a known modelling
// deviation (DESIGN.md §2): MSHR entries expire lazily, so an L1D miss
// to a block whose fill has completed but whose entry no other miss
// has yet expired takes the stale fill time as a merge. The miss
// completes at once and never reaches the lower level. A fix sends it
// to the L2 and changes every figure, so it waits for a re-baseline;
// this test fails when the behaviour changes in either direction.
func TestDeviationStaleMSHREntryAbsorbsMiss(t *testing.T) {
	const x = 0x10000000
	instrs := []workload.Instr{{Kind: workload.Load, PC: 0x400000, Addr: x}}
	// ALU work long enough for the first fill to complete, with no
	// other L1D miss to expire its MSHR entry.
	instrs = append(instrs, alus(2000)...)
	// Same 128-B lower-level block, different 32-B L1 block.
	instrs = append(instrs, workload.Instr{Kind: workload.Load, PC: 0x400000, Addr: x + 32})

	stub := newStubL2(50)
	stub.Record = true
	c := MustNew(stub)
	res := c.Run(&fixedSource{instrs: instrs}, int64(len(instrs)))
	if res.L1DMisses != 2 {
		t.Fatalf("%d L1D misses, want 2", res.L1DMisses)
	}
	data := 0
	for _, r := range stub.Reqs {
		if r.Addr >= x {
			data++
		}
	}
	if data != 1 {
		t.Fatalf("%d data requests reached the lower level; the stale-entry deviation sends 1", data)
	}
}
