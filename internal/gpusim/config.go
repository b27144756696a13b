// Package gpusim is a functional SIMT (CUDA-like) GPU simulator with a
// calibrated timing model. It stands in for the CUDA runtime and the
// Nvidia Tesla T10 the paper ran on, which pure-stdlib Go cannot drive.
//
// The simulator has two halves:
//
//   - Functional: kernels are ordinary Go functions of a thread context
//     (blockIdx/threadIdx/blockDim), launched over a 1-D grid as an
//     ordered list of phases, the code between __syncthreads barriers.
//     A block runs phase by phase on one host goroutine, every thread of
//     a phase before the next phase starts; blocks execute concurrently
//     on host cores. Threads of a phase run in ascending order on even
//     blocks and descending order on odd ones, so a missing barrier shows
//     as wrong results on every run. Results are bit-exact with what the
//     CUDA kernel would compute.
//
//   - Timing: the simulator counts the events a bandwidth-bound kernel's
//     runtime is made of — global-memory transactions (grouped per
//     half-warp and coalesced into 64-byte segments, the Tesla T10 /
//     compute-1.3 rule), ALU lane-ops, shared-memory accesses, barriers,
//     kernel launches and PCIe transfer bytes — and converts them to
//     seconds with the card's published constants. Modeled time is fully
//     deterministic: it depends only on the access pattern, never on host
//     wall-clock.
//
// The model and its calibration are documented in DESIGN.md §2; every
// reported "GPU time" in this repository is modeled time from this
// package and is labeled as such.
package gpusim

// Config describes the simulated device and the host link.
type Config struct {
	Name string

	// Execution geometry.
	SMs                int // streaming multiprocessors
	CoresPerSM         int // scalar cores per SM
	WarpSize           int // threads per warp (and 2× the coalescing half-warp)
	MaxThreadsPerBlock int
	SharedMemWords     int // 32-bit words of shared memory per block
	MaxWarpsPerSM      int // resident-warp cap per SM (32 on T10, 48 on Fermi)
	MaxBlocksPerSM     int // resident-block cap per SM (8 on both generations)

	// Clocks and bandwidths.
	CoreClockHz      float64 // scalar core clock
	MemBandwidthBps  float64 // device global-memory bandwidth, bytes/s
	PCIeBandwidthBps float64 // host↔device transfer bandwidth, bytes/s

	// Fixed overheads, in seconds.
	LaunchOverheadSec  float64 // per kernel launch (driver + dispatch)
	TransferLatencySec float64 // per cudaMemcpy call
	SegmentBytes       int     // coalescing segment size (64B on T10, 128B on Fermi)
	WarpsToSaturateSM  int     // warps per SM needed to hide memory latency
	// CoalesceFullWarp groups memory accesses per full warp (Fermi and
	// later, whose L1 serves 128-byte lines per warp) instead of the
	// compute-1.x half-warp rule.
	CoalesceFullWarp bool

	// Host-side execution width: how many blocks run concurrently, each
	// on one host goroutine that runs its threads phase by phase. 0 means
	// GOMAXPROCS. Affects wall-clock only, never modeled time.
	HostParallelism int
}

// TeslaT10 returns the configuration of the paper's GPU: one T10 processor
// of a Tesla S1070 (30 SMs × 8 cores at 1.296 GHz, ~102 GB/s GDDR3,
// PCIe 2.0 x16 host link).
func TeslaT10() Config {
	return Config{
		Name:               "Tesla T10 (S1070)",
		SMs:                30,
		CoresPerSM:         8,
		WarpSize:           32,
		MaxThreadsPerBlock: 512,
		SharedMemWords:     4096, // 16 KB
		MaxWarpsPerSM:      32,
		MaxBlocksPerSM:     8,
		CoreClockHz:        1.296e9,
		MemBandwidthBps:    102e9,
		PCIeBandwidthBps:   5.5e9, // PCIe 2.0 x16 effective
		LaunchOverheadSec:  5e-6,
		TransferLatencySec: 10e-6,
		SegmentBytes:       64,
		WarpsToSaturateSM:  8,
	}
}

// TeslaM2050 returns a Fermi-generation configuration (the card that
// succeeded the T10 in the S-series): 14 SMs × 32 cores at 1.15 GHz,
// ~144 GB/s GDDR5, warp-wide 128-byte coalescing through L1. Used by the
// architecture-evolution ablation.
func TeslaM2050() Config {
	return Config{
		Name:               "Tesla M2050 (Fermi)",
		SMs:                14,
		CoresPerSM:         32,
		WarpSize:           32,
		MaxThreadsPerBlock: 1024,
		SharedMemWords:     12288, // 48 KB
		MaxWarpsPerSM:      48,
		MaxBlocksPerSM:     8,
		CoreClockHz:        1.15e9,
		MemBandwidthBps:    144e9,
		PCIeBandwidthBps:   5.5e9,
		LaunchOverheadSec:  4e-6,
		TransferLatencySec: 9e-6,
		SegmentBytes:       128,
		WarpsToSaturateSM:  12,
		CoalesceFullWarp:   true,
	}
}

// validate panics on impossible configurations so misuse fails fast.
func (c Config) validate() {
	switch {
	case c.SMs <= 0, c.CoresPerSM <= 0, c.WarpSize <= 0, c.MaxThreadsPerBlock <= 0:
		panic("gpusim: config geometry must be positive")
	case c.WarpSize%2 != 0:
		panic("gpusim: warp size must be even (half-warp coalescing)")
	case c.CoreClockHz <= 0, c.MemBandwidthBps <= 0, c.PCIeBandwidthBps <= 0:
		panic("gpusim: config rates must be positive")
	case c.SegmentBytes <= 0 || c.SegmentBytes%4 != 0:
		panic("gpusim: segment size must be a positive multiple of 4 bytes")
	case c.WarpsToSaturateSM <= 0:
		panic("gpusim: WarpsToSaturateSM must be positive")
	case c.MaxWarpsPerSM <= 0 || c.MaxBlocksPerSM <= 0:
		panic("gpusim: resident-warp/block caps must be positive")
	}
}
