package gpusim

import (
	"sync/atomic"
	"testing"
	"time"
)

// timeoutC returns a channel that fires after a generous deadline, for
// deadlock-sensitive tests.
func timeoutC(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(10 * time.Second)
}

func testDevice(words int) *Device {
	cfg := TeslaT10()
	return NewDevice(cfg, words)
}

func TestMallocAlignment(t *testing.T) {
	d := testDevice(4096)
	a, err := d.Malloc(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Malloc(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.off%16 != 0 || b.off%16 != 0 {
		t.Fatalf("buffers not 64-byte aligned: %d, %d", a.off, b.off)
	}
	if b.off <= a.off {
		t.Fatalf("overlapping allocations: %d then %d", a.off, b.off)
	}
}

func TestMallocOutOfMemory(t *testing.T) {
	d := testDevice(100)
	if _, err := d.Malloc(101); err == nil {
		t.Fatal("oversized Malloc succeeded")
	}
	if _, err := d.Malloc(0); err == nil {
		t.Fatal("zero Malloc succeeded")
	}
	if _, err := d.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(64); err == nil {
		t.Fatal("allocation past capacity succeeded")
	}
	d.FreeAll()
	if _, err := d.Malloc(64); err != nil {
		t.Fatalf("Malloc after FreeAll: %v", err)
	}
}

func TestCopyRoundTrip(t *testing.T) {
	d := testDevice(1024)
	buf, _ := d.Malloc(16)
	in := make([]uint32, 16)
	for i := range in {
		in[i] = uint32(i * 3)
	}
	d.CopyToDevice(buf, in)
	out := make([]uint32, 16)
	d.CopyFromDevice(out, buf)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("word %d = %d, want %d", i, out[i], in[i])
		}
	}
	s := d.Stats()
	if s.H2DBytes != 64 || s.D2HBytes != 64 || s.H2DCalls != 1 || s.D2HCalls != 1 {
		t.Fatalf("transfer stats = %+v", s)
	}
}

func TestCopyBoundsPanics(t *testing.T) {
	d := testDevice(64)
	buf, _ := d.Malloc(4)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized CopyToDevice did not panic")
		}
	}()
	d.CopyToDevice(buf, make([]uint32, 5))
}

func TestLaunchGeometryChecks(t *testing.T) {
	d := testDevice(64)
	cases := []LaunchConfig{
		{Grid: 0, Block: 1},
		{Grid: 1, Block: 0},
		{Grid: 1, Block: d.Config().MaxThreadsPerBlock + 1},
		{Grid: 1, Block: 1, SharedWords: d.Config().SharedMemWords + 1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: launch %+v did not panic", i, cfg)
				}
			}()
			d.Launch(cfg, func(ctx *Ctx) {})
		}()
	}
}

func TestKernelComputesElementwiseAdd(t *testing.T) {
	d := testDevice(4096)
	n := 500
	a, _ := d.Malloc(n)
	b, _ := d.Malloc(n)
	c, _ := d.Malloc(n)
	in1 := make([]uint32, n)
	in2 := make([]uint32, n)
	for i := range in1 {
		in1[i] = uint32(i)
		in2[i] = uint32(2 * i)
	}
	d.CopyToDevice(a, in1)
	d.CopyToDevice(b, in2)
	block := 128
	grid := (n + block - 1) / block
	d.Launch(LaunchConfig{Grid: grid, Block: block}, func(ctx *Ctx) {
		i := ctx.GlobalThreadID()
		if i >= n {
			return
		}
		ctx.StoreGlobal(c, i, ctx.LoadGlobal(a, i)+ctx.LoadGlobal(b, i))
	})
	out := make([]uint32, n)
	d.CopyFromDevice(out, c)
	for i := range out {
		if out[i] != uint32(3*i) {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], 3*i)
		}
	}
}

// reversal launches the classic shared-memory reversal on two blocks of
// n threads: each thread writes shared[tid], then reads
// shared[blockDim-1-tid] into out[blockIdx*n+tid]. With merged the write
// and the read share one phase, which drops the barrier between them.
func reversal(n int, merged bool) []uint32 {
	d := testDevice(4096)
	out, _ := d.Malloc(2 * n)
	write := func(ctx *Ctx) { ctx.StoreShared(ctx.ThreadIdx, uint32(ctx.ThreadIdx)) }
	read := func(ctx *Ctx) {
		ctx.StoreGlobal(out, ctx.GlobalThreadID(), ctx.LoadShared(ctx.BlockDim-1-ctx.ThreadIdx))
	}
	cfg := LaunchConfig{Grid: 2, Block: n, SharedWords: n}
	if merged {
		d.Launch(cfg, func(ctx *Ctx) { write(ctx); read(ctx) })
	} else {
		d.Launch(cfg, write, read)
	}
	got := make([]uint32, 2*n)
	d.CopyFromDevice(got, out)
	return got
}

func TestBarrierOrdersSharedMemory(t *testing.T) {
	// The phase boundary is the barrier: every write lands before any
	// read, in both thread orders.
	n := 256
	got := reversal(n, false)
	for i := range got {
		if want := uint32(n - 1 - i%n); got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestMissingBarrierIsDeterministic(t *testing.T) {
	// Without the barrier, block 0 (ascending thread order) reads the
	// not-yet-written upper half as zero for its lower threads, and block
	// 1 (descending) does the same for its upper threads: wrong output in
	// block 1, different from block 0's, on every run.
	n := 256
	got := reversal(n, true)
	for i := 0; i < n; i++ {
		want0, want1 := uint32(n-1-i), uint32(0)
		if i < n/2 {
			want0, want1 = 0, uint32(n-1-i)
		}
		if got[i] != want0 || got[n+i] != want1 {
			t.Fatalf("thread %d: blocks read %d and %d, want %d and %d", i, got[i], got[n+i], want0, want1)
		}
	}
}

// reduceShared is the tree reduction of shared words [0, block): one phase
// per halving stride.
func reduceShared(block int) []Kernel {
	var phases []Kernel
	for stride := block / 2; stride > 0; stride /= 2 {
		phases = append(phases, func(ctx *Ctx) {
			if ctx.ThreadIdx < stride {
				ctx.StoreShared(ctx.ThreadIdx, ctx.LoadShared(ctx.ThreadIdx)+ctx.LoadShared(ctx.ThreadIdx+stride))
			}
		})
	}
	return phases
}

func TestTreeReductionInSharedMemory(t *testing.T) {
	// The paper's support-reduction pattern: sum blockDim values by
	// halving strides with barriers between steps.
	d := testDevice(1024)
	block := 128
	out, _ := d.Malloc(1)
	phases := []Kernel{func(ctx *Ctx) { ctx.StoreShared(ctx.ThreadIdx, uint32(ctx.ThreadIdx)) }}
	phases = append(phases, reduceShared(block)...)
	phases = append(phases, func(ctx *Ctx) {
		if ctx.ThreadIdx == 0 {
			ctx.StoreGlobal(out, 0, ctx.LoadShared(0))
		}
	})
	d.Launch(LaunchConfig{Grid: 1, Block: block, SharedWords: block}, phases...)
	got := make([]uint32, 1)
	d.CopyFromDevice(got, out)
	want := uint32(block * (block - 1) / 2)
	if got[0] != want {
		t.Fatalf("reduction = %d, want %d", got[0], want)
	}
}

func TestEarlyExitDoesNotDeadlockBarrier(t *testing.T) {
	// An exited thread is an early return in each phase; it is not
	// waited for. Thread 0 returns immediately; the rest cross two
	// barriers and must complete.
	d := testDevice(64)
	out, _ := d.Malloc(8)
	done := make(chan struct{})
	var s Stats
	go func() {
		s = d.Launch(LaunchConfig{Grid: 1, Block: 8, SharedWords: 8}, func(ctx *Ctx) {
			if ctx.ThreadIdx == 0 {
				return
			}
			ctx.StoreShared(ctx.ThreadIdx, 1)
		}, func(ctx *Ctx) {}, func(ctx *Ctx) {
			if ctx.ThreadIdx == 0 {
				return
			}
			ctx.StoreGlobal(out, ctx.ThreadIdx, ctx.LoadShared(ctx.ThreadIdx))
		})
		close(done)
	}()
	select {
	case <-done:
	case <-timeoutC(t):
		t.Fatal("launch deadlocked on early-exiting thread")
	}
	got := make([]uint32, 8)
	d.CopyFromDevice(got, out)
	for i := 1; i < 8; i++ {
		if got[i] != 1 {
			t.Fatalf("thread %d result %d, want 1", i, got[i])
		}
	}
	// Barriers = Block × (phases − 1): every thread crosses every phase
	// boundary, returned early or not.
	if s.Barriers != 8*2 {
		t.Fatalf("barriers = %d, want %d", s.Barriers, 8*2)
	}
}

func TestKernelPanicPropagates(t *testing.T) {
	d := testDevice(64)
	defer func() {
		if recover() == nil {
			t.Fatal("kernel panic did not propagate")
		}
	}()
	d.Launch(LaunchConfig{Grid: 2, Block: 8}, func(ctx *Ctx) {
		if ctx.BlockIdx == 1 && ctx.ThreadIdx == 3 {
			panic("boom")
		}
	})
}

func TestSharedMemoryIsolatedBetweenBlocks(t *testing.T) {
	d := testDevice(1024)
	out, _ := d.Malloc(64)
	d.Launch(LaunchConfig{Grid: 64, Block: 1, SharedWords: 1}, func(ctx *Ctx) {
		// Each single-thread block increments its shared word; blocks must
		// not see each other's writes.
		v := ctx.LoadShared(0)
		ctx.StoreShared(0, v+1)
		ctx.StoreGlobal(out, ctx.BlockIdx, ctx.LoadShared(0))
	})
	got := make([]uint32, 64)
	d.CopyFromDevice(got, out)
	for i, v := range got {
		if v != 1 {
			t.Fatalf("block %d saw shared value %d, want 1", i, v)
		}
	}
}

func TestPopc(t *testing.T) {
	d := testDevice(64)
	out, _ := d.Malloc(4)
	d.Launch(LaunchConfig{Grid: 1, Block: 4}, func(ctx *Ctx) {
		vals := []uint32{0, 1, 0xFFFFFFFF, 0xA5A5A5A5}
		ctx.StoreGlobal(out, ctx.ThreadIdx, ctx.Popc(vals[ctx.ThreadIdx]))
	})
	got := make([]uint32, 4)
	d.CopyFromDevice(got, out)
	want := []uint32{0, 1, 32, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popc[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCoalescingDetection(t *testing.T) {
	d := testDevice(1 << 16)
	buf, _ := d.Malloc(1 << 15)

	// Pattern 1: consecutive words per half-warp → 1 transaction each.
	d.ResetStats()
	d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
		ctx.LoadGlobal(buf, ctx.ThreadIdx)
	})
	s := d.Stats()
	if s.Transactions != 2 { // two half-warps of 16×4B = one 64B segment each
		t.Fatalf("coalesced pattern: %d transactions, want 2", s.Transactions)
	}
	if s.PerfectlyCoalescedGroups != 2 || s.UncoalescedExtra != 0 {
		t.Fatalf("coalesced pattern stats: %+v", s)
	}

	// Pattern 2: stride-16 words (64B) → every lane its own segment.
	d.ResetStats()
	d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
		ctx.LoadGlobal(buf, ctx.ThreadIdx*16)
	})
	s = d.Stats()
	if s.Transactions != 32 {
		t.Fatalf("strided pattern: %d transactions, want 32", s.Transactions)
	}
	if s.UncoalescedExtra != 30 {
		t.Fatalf("strided pattern extra = %d, want 30", s.UncoalescedExtra)
	}
}

func TestWarpLockstepALUPadding(t *testing.T) {
	d := testDevice(64)
	// One divergent thread does 100 ops; the whole 32-lane warp pays.
	d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
		if ctx.ThreadIdx == 0 {
			ctx.Compute(100)
		}
	})
	if s := d.Stats(); s.ALULaneOps != 100*32 {
		t.Fatalf("ALULaneOps = %d, want %d", s.ALULaneOps, 100*32)
	}
}

func TestStatsAccumulateAcrossLaunches(t *testing.T) {
	d := testDevice(1024)
	buf, _ := d.Malloc(64)
	for i := 0; i < 3; i++ {
		d.Launch(LaunchConfig{Grid: 2, Block: 16}, func(ctx *Ctx) {
			ctx.LoadGlobal(buf, ctx.ThreadIdx)
		})
	}
	s := d.Stats()
	if s.KernelLaunches != 3 || s.BlocksRun != 6 || s.ThreadsRun != 96 {
		t.Fatalf("accumulated stats: %+v", s)
	}
	d.ResetStats()
	if s := d.Stats(); s.KernelLaunches != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestLaunchReturnsPerLaunchStats(t *testing.T) {
	d := testDevice(1024)
	buf, _ := d.Malloc(64)
	first := d.Launch(LaunchConfig{Grid: 1, Block: 16}, func(ctx *Ctx) {
		ctx.LoadGlobal(buf, ctx.ThreadIdx)
	})
	if first.KernelLaunches != 1 || first.BlocksRun != 1 || first.GlobalLoads != 16 {
		t.Fatalf("per-launch stats: %+v", first)
	}
}

func TestAllBlocksAndThreadsRun(t *testing.T) {
	d := testDevice(64)
	var count atomic.Int64
	d.Launch(LaunchConfig{Grid: 17, Block: 33}, func(ctx *Ctx) {
		count.Add(1)
	})
	if count.Load() != 17*33 {
		t.Fatalf("ran %d threads, want %d", count.Load(), 17*33)
	}
}

func TestTimingModelMonotonic(t *testing.T) {
	cfg := TeslaT10()
	small := Stats{KernelLaunches: 1, WarpsRun: 240, Transactions: 1000}
	big := Stats{KernelLaunches: 1, WarpsRun: 240, Transactions: 100000}
	ts := cfg.Model(small)
	tb := cfg.Model(big)
	if tb.Total() <= ts.Total() {
		t.Fatalf("more traffic not slower: %v vs %v", tb, ts)
	}
}

func TestTimingModelUtilizationPenalty(t *testing.T) {
	cfg := TeslaT10()
	// Same traffic; tiny grid (2 warps) vs saturating grid.
	starved := Stats{KernelLaunches: 1, WarpsRun: 2, Transactions: 50000}
	fed := Stats{KernelLaunches: 1, WarpsRun: int64(cfg.SMs * cfg.WarpsToSaturateSM), Transactions: 50000}
	if cfg.Model(starved).Kernel <= cfg.Model(fed).Kernel {
		t.Fatal("under-occupied launch not penalized")
	}
}

func TestTimingModelTransferCosts(t *testing.T) {
	cfg := TeslaT10()
	s := Stats{H2DBytes: 1 << 30, H2DCalls: 1}
	tm := cfg.Model(s)
	wantMin := float64(1<<30) / cfg.PCIeBandwidthBps
	if tm.Transfer < wantMin {
		t.Fatalf("transfer time %v below bandwidth bound %v", tm.Transfer, wantMin)
	}
	if tm.Kernel != 0 {
		t.Fatalf("transfer-only stats produced kernel time %v", tm.Kernel)
	}
}

func TestTimingModelDeterministic(t *testing.T) {
	d := testDevice(4096)
	buf, _ := d.Malloc(512)
	run := func() TimeBreakdown {
		d.ResetStats()
		d.Launch(LaunchConfig{Grid: 8, Block: 64}, func(ctx *Ctx) {
			for i := ctx.ThreadIdx; i < 512; i += ctx.BlockDim {
				ctx.LoadGlobal(buf, i)
			}
		})
		return d.ModeledTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("modeled time not deterministic: %v vs %v", a, b)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := TeslaT10()
	bad.SMs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	NewDevice(bad, 10)
}

func TestZeroBufferPanics(t *testing.T) {
	d := testDevice(64)
	defer func() {
		if recover() == nil {
			t.Fatal("zero Buffer use did not panic")
		}
	}()
	d.Launch(LaunchConfig{Grid: 1, Block: 1}, func(ctx *Ctx) {
		ctx.LoadGlobal(Buffer{}, 0)
	})
}

func TestAtomicAddGlobal(t *testing.T) {
	d := testDevice(64)
	out, _ := d.Malloc(1)
	d.Launch(LaunchConfig{Grid: 4, Block: 32}, func(ctx *Ctx) {
		ctx.AtomicAddGlobal(out, 0, 1)
	})
	got := make([]uint32, 1)
	d.CopyFromDevice(got, out)
	if got[0] != 128 {
		t.Fatalf("atomic sum = %d, want 128", got[0])
	}
}

func TestAtomicAddShared(t *testing.T) {
	d := testDevice(64)
	out, _ := d.Malloc(1)
	d.Launch(LaunchConfig{Grid: 1, Block: 64, SharedWords: 1}, func(ctx *Ctx) {
		ctx.AtomicAddShared(0, uint32(ctx.ThreadIdx))
	}, func(ctx *Ctx) {
		if ctx.ThreadIdx == 0 {
			ctx.StoreGlobal(out, 0, ctx.LoadShared(0))
		}
	})
	got := make([]uint32, 1)
	d.CopyFromDevice(got, out)
	if want := uint32(64 * 63 / 2); got[0] != want {
		t.Fatalf("shared atomic sum = %d, want %d", got[0], want)
	}
}

func TestAtomicsSerializeTransactions(t *testing.T) {
	// 32 lanes hitting the same word: coalesced loads need 2 transactions
	// (one per half-warp); atomics need 32.
	d := testDevice(128)
	buf, _ := d.Malloc(16)
	d.ResetStats()
	d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
		ctx.AtomicAddGlobal(buf, 0, 1)
	})
	if s := d.Stats(); s.Transactions != 32 {
		t.Fatalf("atomic transactions = %d, want 32", s.Transactions)
	}
	d.ResetStats()
	d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
		ctx.LoadGlobal(buf, 0)
	})
	if s := d.Stats(); s.Transactions != 2 {
		t.Fatalf("broadcast-load transactions = %d, want 2", s.Transactions)
	}
}

func TestFermiWarpWideCoalescing(t *testing.T) {
	// 32 consecutive 4-byte loads: T10 (half-warp, 64B segments) needs 2
	// transactions; Fermi (full-warp, 128B) needs 1.
	run := func(cfg Config) int64 {
		d := NewDevice(cfg, 1024)
		buf, _ := d.Malloc(64)
		d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
			ctx.LoadGlobal(buf, ctx.ThreadIdx)
		})
		return d.Stats().Transactions
	}
	if tx := run(TeslaT10()); tx != 2 {
		t.Fatalf("T10 transactions = %d, want 2", tx)
	}
	if tx := run(TeslaM2050()); tx != 1 {
		t.Fatalf("Fermi transactions = %d, want 1", tx)
	}
}

func TestFermiConfigValid(t *testing.T) {
	cfg := TeslaM2050()
	d := NewDevice(cfg, 4096)
	out, _ := d.Malloc(4)
	d.Launch(LaunchConfig{Grid: 1, Block: 4}, func(ctx *Ctx) {
		ctx.StoreGlobal(out, ctx.ThreadIdx, uint32(ctx.ThreadIdx))
	})
	got := make([]uint32, 4)
	d.CopyFromDevice(got, out)
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("Fermi device functional results wrong: %v", got)
		}
	}
}

func TestBranchDivergenceDetected(t *testing.T) {
	d := testDevice(256)
	// Uniform branch: all lanes agree → executed but not divergent.
	d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
		ctx.Branch(true)
	})
	s := d.Stats()
	if s.BranchesExecuted != 1 || s.DivergentBranches != 0 {
		t.Fatalf("uniform branch stats: %+v", s)
	}
	// Divergent branch: lanes split on parity.
	d.ResetStats()
	d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(ctx *Ctx) {
		ctx.Branch(ctx.ThreadIdx%2 == 0)
	})
	s = d.Stats()
	if s.BranchesExecuted != 1 || s.DivergentBranches != 1 {
		t.Fatalf("divergent branch stats: %+v", s)
	}
}

func TestBranchReturnsItsArgument(t *testing.T) {
	d := testDevice(64)
	out, _ := d.Malloc(2)
	d.Launch(LaunchConfig{Grid: 1, Block: 2}, func(ctx *Ctx) {
		if ctx.Branch(ctx.ThreadIdx == 0) {
			ctx.StoreGlobal(out, 0, 7)
		} else {
			ctx.StoreGlobal(out, 1, 9)
		}
	})
	got := make([]uint32, 2)
	d.CopyFromDevice(got, out)
	if got[0] != 7 || got[1] != 9 {
		t.Fatalf("branch results = %v", got)
	}
}

func TestBranchesAcrossWarpsIndependent(t *testing.T) {
	d := testDevice(64)
	// Two warps: warp 0 all-taken, warp 1 all-not-taken → no divergence.
	d.Launch(LaunchConfig{Grid: 1, Block: 64}, func(ctx *Ctx) {
		ctx.Branch(ctx.ThreadIdx < 32)
	})
	if s := d.Stats(); s.DivergentBranches != 0 {
		t.Fatalf("cross-warp disagreement flagged as divergence: %+v", s)
	}
}

func TestOccupancySharedMemoryLimited(t *testing.T) {
	d := testDevice(1 << 16)
	// Block of 256 (8 warps) with shared memory sized so only 2 blocks fit
	// per SM: resident warps = 16. Without shared pressure: min(8 blocks ×
	// 8 warps, 32) = 32.
	big := LaunchConfig{Grid: 1000, Block: 256, SharedWords: d.Config().SharedMemWords / 2}
	small := LaunchConfig{Grid: 1000, Block: 256, SharedWords: 16}
	if occ := d.occupancy(big); occ != 16 {
		t.Fatalf("shared-limited occupancy = %v, want 16", occ)
	}
	if occ := d.occupancy(small); occ != 32 {
		t.Fatalf("unconstrained occupancy = %v, want 32 (T10 cap)", occ)
	}
}

func TestOccupancyGridLimited(t *testing.T) {
	d := testDevice(1 << 12)
	// 30 SMs, 15 blocks of 2 warps: half the SMs idle → 1 warp/SM average.
	if occ := d.occupancy(LaunchConfig{Grid: 15, Block: 64}); occ != 1 {
		t.Fatalf("grid-limited occupancy = %v, want 1", occ)
	}
}

func TestOccupancyAffectsModeledTime(t *testing.T) {
	// Same memory traffic, but a launch with shared-memory-starved
	// occupancy must model slower than a well-occupied one.
	run := func(sharedWords int) float64 {
		d := testDevice(1 << 16)
		buf, _ := d.Malloc(1 << 14)
		d.Launch(LaunchConfig{Grid: 64, Block: 128, SharedWords: sharedWords}, func(ctx *Ctx) {
			for w := ctx.ThreadIdx; w < 1<<14; w += ctx.BlockDim * ctx.GridDim {
				ctx.LoadGlobal(buf, w)
			}
		})
		return d.ModeledTime().Kernel
	}
	starved := run(testDevice(1).Config().SharedMemWords) // 1 block/SM
	fed := run(32)
	if starved <= fed {
		t.Fatalf("occupancy starvation not penalized: %v vs %v", starved, fed)
	}
}

func TestTotalAsyncBounds(t *testing.T) {
	tb := TimeBreakdown{Kernel: 3, Launch: 1, Transfer: 2}
	if got := tb.TotalAsync(); got != 4 {
		t.Fatalf("TotalAsync = %v, want 4 (max(3,2)+1)", got)
	}
	if tb.TotalAsync() > tb.Total() {
		t.Fatal("async pipeline slower than synchronous")
	}
	// Transfer-bound case.
	tb = TimeBreakdown{Kernel: 1, Launch: 0.5, Transfer: 9}
	if got := tb.TotalAsync(); got != 9.5 {
		t.Fatalf("TotalAsync = %v, want 9.5", got)
	}
}

// Property: the timing model is monotone — adding events never reduces
// modeled time components.
func TestPropertyModelMonotone(t *testing.T) {
	cfg := TeslaT10()
	base := Stats{
		KernelLaunches: 3, WarpsRun: 600, BlocksRun: 100,
		Transactions: 5000, ALULaneOps: 100000, H2DBytes: 1 << 16, H2DCalls: 3,
	}
	tb := cfg.Model(base)
	grown := base
	grown.Transactions *= 2
	if cfg.Model(grown).Memory <= tb.Memory {
		t.Fatal("more transactions did not increase memory time")
	}
	grown = base
	grown.ALULaneOps *= 2
	if cfg.Model(grown).Compute <= tb.Compute {
		t.Fatal("more ALU ops did not increase compute time")
	}
	grown = base
	grown.H2DBytes *= 2
	if cfg.Model(grown).Transfer <= tb.Transfer {
		t.Fatal("more transfer bytes did not increase transfer time")
	}
	grown = base
	grown.KernelLaunches++
	if cfg.Model(grown).Launch <= tb.Launch {
		t.Fatal("more launches did not increase launch time")
	}
}

func TestStatsIndependentOfHostParallelism(t *testing.T) {
	// Host-side execution width is a simulation detail: stats and modeled
	// time must be identical whether blocks run serially or concurrently.
	run := func(par int) Stats {
		cfg := TeslaT10()
		cfg.HostParallelism = par
		d := NewDevice(cfg, 1<<14)
		buf, _ := d.Malloc(4096)
		d.Launch(LaunchConfig{Grid: 16, Block: 64, SharedWords: 64}, append([]Kernel{func(ctx *Ctx) {
			sum := uint32(0)
			for w := ctx.ThreadIdx; w < 4096; w += ctx.BlockDim {
				sum += ctx.Popc(ctx.LoadGlobal(buf, w))
			}
			ctx.StoreShared(ctx.ThreadIdx, sum)
		}}, reduceShared(64)...)...)
		return d.Stats()
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("stats differ across host parallelism:\n%+v\n%+v", a, b)
	}
}
