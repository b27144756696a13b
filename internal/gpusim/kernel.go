package gpusim

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// LaunchConfig is the 1-D execution geometry of a kernel launch
// (<<<grid, block, sharedWords>>> in CUDA syntax).
type LaunchConfig struct {
	Grid        int // number of thread blocks
	Block       int // threads per block
	SharedWords int // 32-bit words of shared memory per block
}

// Kernel is one barrier-delimited phase of a device function: it runs
// once per thread with that thread's context. A CUDA kernel with
// __syncthreads is written as the ordered list of the code between its
// barriers, and Launch runs phase p for every thread of a block before
// phase p+1 starts. Per-thread values that must survive a barrier go
// through shared or global memory, as on the card. Kernels must perform
// all global/shared memory access through the context so the timing
// model sees every event.
type Kernel func(ctx *Ctx)

// Ctx is one thread's view of the device — the CUDA built-ins plus the
// instrumented memory operations.
type Ctx struct {
	BlockIdx  int
	ThreadIdx int
	BlockDim  int
	GridDim   int

	dev      *Device
	shared   []uint32 // the block's shared memory
	log      []access // global-access trace, ordered per thread
	alu      int64
	shmem    int64
	branches []bool // taken/not-taken trace for divergence analysis
}

type access struct {
	word   int // absolute device word index
	store  bool
	atomic bool // atomics serialize: no coalescing with lane mates
}

// blockState is one host worker's block: shared memory and the thread
// contexts, whose traces feed the coalescing analysis. A worker reuses
// it for every block it runs.
type blockState struct {
	shared  []uint32
	threads []Ctx
	segs    []int // distinct segments of one access group (analyzeBlock)
}

// LoadGlobal reads one 32-bit word of global memory, tracing it for the
// coalescing analysis.
func (c *Ctx) LoadGlobal(b Buffer, idx int) uint32 {
	b.check(idx)
	c.log = append(c.log, access{word: b.off + idx})
	c.alu++ // address arithmetic
	return c.dev.mem[b.off+idx]
}

// StoreGlobal writes one 32-bit word of global memory.
func (c *Ctx) StoreGlobal(b Buffer, idx int, v uint32) {
	b.check(idx)
	c.log = append(c.log, access{word: b.off + idx, store: true})
	c.alu++
	c.dev.mem[b.off+idx] = v
}

// LoadShared reads a word of the block's shared memory.
func (c *Ctx) LoadShared(idx int) uint32 {
	c.shmem++
	return c.shared[idx]
}

// StoreShared writes a word of the block's shared memory.
func (c *Ctx) StoreShared(idx int, v uint32) {
	c.shmem++
	c.shared[idx] = v
}

// SharedLen returns the block's shared-memory size in words.
func (c *Ctx) SharedLen() int { return len(c.shared) }

// Popc is the CUDA __popc intrinsic: population count of a 32-bit word.
func (c *Ctx) Popc(v uint32) uint32 {
	c.alu++
	return uint32(bits.OnesCount32(v))
}

// AtomicAddGlobal atomically adds v to a word of global memory and
// returns the previous value (CUDA atomicAdd). On the T10 generation,
// atomics serialize at the memory controller: the access is traced like a
// store (one transaction per colliding lane) plus extra ALU cost for the
// read-modify-write.
func (c *Ctx) AtomicAddGlobal(b Buffer, idx int, v uint32) uint32 {
	b.check(idx)
	c.log = append(c.log, access{word: b.off + idx, store: true, atomic: true})
	c.alu += 2 // RMW round trip
	c.dev.mu.Lock()
	old := c.dev.mem[b.off+idx]
	c.dev.mem[b.off+idx] = old + v
	c.dev.mu.Unlock()
	return old
}

// AtomicAddShared atomically adds v to a word of the block's shared
// memory and returns the previous value. A block runs on one host
// goroutine, so the add needs no lock.
func (c *Ctx) AtomicAddShared(idx int, v uint32) uint32 {
	c.shmem += 2
	old := c.shared[idx]
	c.shared[idx] = old + v
	return old
}

// Branch records a data-dependent branch decision for warp-divergence
// analysis: when lanes of one warp disagree on the i-th recorded branch,
// the hardware serializes both paths. Kernels annotate the branches whose
// divergence matters (the tidset join's data-dependent pointer advance is
// the canonical case); straight-line kernels need not call it.
func (c *Ctx) Branch(taken bool) bool {
	c.branches = append(c.branches, taken)
	c.alu++
	return taken
}

// Compute accounts n generic ALU operations (index math, compares,
// bitwise ops) that the kernel performs outside the instrumented
// accessors.
func (c *Ctx) Compute(n int) {
	if n < 0 {
		panic("gpusim: negative Compute count")
	}
	c.alu += int64(n)
}

// GlobalThreadID returns blockIdx*blockDim + threadIdx, the canonical
// global index of CUDA 1-D kernels.
func (c *Ctx) GlobalThreadID() int { return c.BlockIdx*c.BlockDim + c.ThreadIdx }

// Launch runs a kernel, given as its barrier-delimited phases, over the
// grid. Each block runs on one host goroutine, phase by phase; the
// boundary between two phases is the block's __syncthreads. Within a
// phase threads run in ascending ThreadIdx order on even blocks and in
// descending order on odd blocks, so a missing barrier (a thread reading
// a shared word another thread writes in the same phase) gives results
// that differ between even and odd blocks on every run. Up to
// HostParallelism blocks are in flight at once. Launch returns the
// per-launch statistics after they are folded into the device totals.
func (d *Device) Launch(cfg LaunchConfig, phases ...Kernel) Stats {
	if cfg.Grid <= 0 || cfg.Block <= 0 {
		panic(fmt.Sprintf("gpusim: launch geometry %d×%d must be positive", cfg.Grid, cfg.Block))
	}
	if cfg.Block > d.cfg.MaxThreadsPerBlock {
		panic(fmt.Sprintf("gpusim: block size %d exceeds device limit %d", cfg.Block, d.cfg.MaxThreadsPerBlock))
	}
	if cfg.SharedWords > d.cfg.SharedMemWords {
		panic(fmt.Sprintf("gpusim: shared memory %d words exceeds device limit %d", cfg.SharedWords, d.cfg.SharedMemWords))
	}
	if len(phases) == 0 {
		panic("gpusim: launch without a kernel phase")
	}

	workers := d.cfg.HostParallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Grid {
		workers = cfg.Grid
	}

	var mu sync.Mutex
	var firstPanic interface{}
	launch := Stats{
		KernelLaunches:      1,
		OccupancyMilliWarps: int64(1000*d.occupancy(cfg) + 0.5),
	}
	var next atomic.Int64 // next block to hand out
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if firstPanic == nil {
						firstPanic = r
					}
					mu.Unlock()
				}
			}()
			s := d.runBlocks(cfg, phases, &next)
			mu.Lock()
			launch.Add(s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstPanic != nil {
		// Re-raise the kernel's failure on the launching goroutine, like a
		// sticky CUDA error surfacing at the next runtime call.
		panic(firstPanic)
	}

	d.mu.Lock()
	d.stats.Add(launch)
	prof := d.profiler
	d.mu.Unlock()
	if prof != nil {
		prof.record(cfg, launch)
	}
	return launch
}

// occupancy models the warps resident per SM for a launch: blocks per SM
// are capped by the hardware residency limit and by shared memory; the
// grid may not supply enough blocks to fill every SM.
func (d *Device) occupancy(cfg LaunchConfig) float64 {
	warpsPerBlock := (cfg.Block + d.cfg.WarpSize - 1) / d.cfg.WarpSize
	blocksPerSM := d.cfg.MaxBlocksPerSM
	if cfg.SharedWords > 0 {
		if byShared := d.cfg.SharedMemWords / cfg.SharedWords; byShared < blocksPerSM {
			blocksPerSM = byShared
		}
	}
	if blocksPerSM < 1 {
		blocksPerSM = 1
	}
	resident := blocksPerSM * warpsPerBlock
	if resident > d.cfg.MaxWarpsPerSM {
		resident = d.cfg.MaxWarpsPerSM
	}
	// The grid limits how many blocks each SM actually receives.
	gridBlocksPerSM := float64(cfg.Grid) / float64(d.cfg.SMs)
	gridWarpsPerSM := gridBlocksPerSM * float64(warpsPerBlock)
	if gridWarpsPerSM < float64(resident) {
		return gridWarpsPerSM
	}
	return float64(resident)
}

// runBlocks is one host worker: it takes blocks from next until the grid
// is exhausted, runs each phase by phase on one reused blockState, and
// returns the statistics of the blocks it ran.
func (d *Device) runBlocks(cfg LaunchConfig, phases []Kernel, next *atomic.Int64) Stats {
	blk := &blockState{
		shared:  make([]uint32, cfg.SharedWords),
		threads: make([]Ctx, cfg.Block),
	}
	for t := range blk.threads {
		blk.threads[t] = Ctx{ThreadIdx: t, BlockDim: cfg.Block, GridDim: cfg.Grid, dev: d, shared: blk.shared}
	}
	var s Stats
	for b := int(next.Add(1) - 1); b < cfg.Grid; b = int(next.Add(1) - 1) {
		clear(blk.shared)
		for t := range blk.threads {
			c := &blk.threads[t]
			c.BlockIdx = b
			c.log, c.branches = c.log[:0], c.branches[:0]
			c.alu, c.shmem = 0, 0
		}
		for _, k := range phases {
			if b%2 == 0 {
				for t := range blk.threads {
					k(&blk.threads[t])
				}
			} else {
				for t := len(blk.threads) - 1; t >= 0; t-- {
					k(&blk.threads[t])
				}
			}
		}
		s.Add(d.analyzeBlock(cfg, blk, len(phases)))
	}
	return s
}

// analyzeBlock post-processes a finished block's traces into statistics.
// Under the SIMT lockstep assumption, the i-th global access of every
// thread in a half-warp issues in the same cycle; the group coalesces into
// as many SegmentBytes-sized transactions as distinct segments it touches
// (the Tesla T10 / compute-1.3 rule). ALU lane-ops are padded to the warp
// maximum, since divergent lanes idle but still occupy the SIMD unit.
// Every thread crosses each of the phases−1 barriers.
func (d *Device) analyzeBlock(cfg LaunchConfig, blk *blockState, phases int) Stats {
	var s Stats
	s.BlocksRun = 1
	s.ThreadsRun = int64(cfg.Block)
	s.Barriers = int64(cfg.Block) * int64(phases-1)
	threads := blk.threads
	warp := d.cfg.WarpSize
	half := warp / 2
	if d.cfg.CoalesceFullWarp {
		half = warp
	}
	segWords := d.cfg.SegmentBytes / 4
	nWarps := (cfg.Block + warp - 1) / warp
	s.WarpsRun = int64(nWarps)

	for lo := 0; lo < cfg.Block; lo += half {
		group := threads[lo:min(lo+half, cfg.Block)]
		// Longest trace in this half-warp decides the step count.
		maxSteps := 0
		for t := range group {
			maxSteps = max(maxSteps, len(group[t].log))
		}
		for step := 0; step < maxSteps; step++ {
			segs := blk.segs[:0]
			n := 0
			atomics := int64(0)
			for t := range group {
				if step >= len(group[t].log) {
					continue
				}
				a := group[t].log[step]
				if a.atomic {
					// Atomics serialize at the memory controller: one
					// transaction per lane, never coalesced.
					atomics++
				} else if seg := a.word / segWords; !slices.Contains(segs, seg) {
					segs = append(segs, seg)
				}
				if a.store {
					s.GlobalStores++
				} else {
					s.GlobalLoads++
				}
				n++
			}
			blk.segs = segs
			if n == 0 {
				continue
			}
			// The group's ideal cost is one transaction; everything beyond
			// that (scattered segments, serialized atomics) is "extra".
			tx := atomics + int64(len(segs))
			s.Transactions += tx
			if tx == 1 && atomics == 0 {
				s.PerfectlyCoalescedGroups++
			} else {
				s.UncoalescedExtra += tx - 1
			}
		}
	}

	for lo := 0; lo < cfg.Block; lo += warp {
		lanes := threads[lo:min(lo+warp, cfg.Block)]
		// Divergence: the i-th recorded branch of a warp diverges when its
		// lanes disagree; counted under the lockstep assumption.
		maxB := 0
		for t := range lanes {
			maxB = max(maxB, len(lanes[t].branches))
		}
		for step := 0; step < maxB; step++ {
			sawTaken, sawNot := false, false
			for t := range lanes {
				if step < len(lanes[t].branches) {
					if lanes[t].branches[step] {
						sawTaken = true
					} else {
						sawNot = true
					}
				}
			}
			s.BranchesExecuted++
			if sawTaken && sawNot {
				s.DivergentBranches++
			}
		}

		// Warp-lockstep ALU padding: each warp costs max(thread ops) on
		// every lane.
		var maxALU, maxSh int64
		for t := range lanes {
			maxALU = max(maxALU, lanes[t].alu)
			maxSh = max(maxSh, lanes[t].shmem)
		}
		s.ALULaneOps += maxALU * int64(len(lanes))
		s.SharedAccesses += maxSh * int64(len(lanes))
	}
	return s
}
