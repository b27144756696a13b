package kernels

import (
	"fmt"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
)

// SupportCountsAtomic computes candidate supports like SupportCounts but
// replaces the shared-memory tree reduction (the paper's Figure 5 design)
// with per-thread atomicAdds on the global support counter.
//
// This variant exists for the reduction-design ablation: on T10-class
// hardware global atomics serialize at the memory controller, so the
// paper's choice of a barrier-synchronized tree reduction is the faster
// design — the modeled transaction counts show exactly why. Functional
// results are identical to SupportCounts.
func (d *DeviceDB) SupportCountsAtomic(cands [][]dataset.Item, opt Options) ([]int, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	opt = opt.normalize(d.dev)
	k := len(cands[0])
	if k == 0 {
		return nil, fmt.Errorf("kernels: empty candidate")
	}
	flat := make([]uint32, 0, len(cands)*k)
	for i, c := range cands {
		if len(c) != k {
			return nil, fmt.Errorf("kernels: candidate %d has length %d, want %d", i, len(c), k)
		}
		for _, item := range c {
			if int(item) >= d.numItems {
				return nil, fmt.Errorf("kernels: candidate %d references item %d outside device DB", i, item)
			}
			flat = append(flat, uint32(item))
		}
	}
	candBuf, err := d.dev.Malloc(len(flat))
	if err != nil {
		return nil, err
	}
	outBuf, err := d.dev.Malloc(len(cands))
	if err != nil {
		return nil, err
	}
	defer d.dev.FreeAllAbove(d.vectors)
	if err := d.dev.TryCopyToDevice(candBuf, flat); err != nil {
		return nil, fmt.Errorf("kernels: candidate upload: %w", err)
	}
	// Zero the output counters (atomicAdd accumulates in place).
	if err := d.dev.TryCopyToDevice(outBuf, make([]uint32, len(cands))); err != nil {
		return nil, fmt.Errorf("kernels: zeroing supports: %w", err)
	}

	sharedWords := 0
	if opt.Preload {
		sharedWords = k
	}
	cfg := gpusim.LaunchConfig{Grid: len(cands), Block: opt.BlockSize, SharedWords: sharedWords}
	words := d.wordsPerVec
	vectors := d.vectors

	var phases []gpusim.Kernel
	if opt.Preload {
		phases = append(phases, preloadPhase(candBuf, k, 0))
	}
	phases = append(phases, func(ctx *gpusim.Ctx) {
		cand := ctx.BlockIdx
		tid := ctx.ThreadIdx
		itemAt := func(j int) int {
			if opt.Preload {
				return int(ctx.LoadShared(j))
			}
			return int(ctx.LoadGlobal(candBuf, cand*k+j))
		}
		sum := uint32(0)
		steps := 0
		for w := tid; w < words; w += ctx.BlockDim {
			acc := ctx.LoadGlobal(vectors, itemAt(0)*words+w)
			for j := 1; j < k; j++ {
				acc &= ctx.LoadGlobal(vectors, itemAt(j)*words+w)
			}
			ctx.Compute(k - 1)
			sum += ctx.Popc(acc)
			steps++
		}
		ctx.Compute((steps + opt.Unroll - 1) / opt.Unroll)
		if sum > 0 {
			ctx.AtomicAddGlobal(outBuf, cand, sum)
		}
	})
	_, lerr := d.dev.TryLaunch(cfg, opt.DeadlineSec, phases...)
	if lerr != nil {
		return nil, fmt.Errorf("kernels: atomic support-count launch: %w", lerr)
	}

	out32 := make([]uint32, len(cands))
	if err := d.dev.TryCopyFromDevice(out32, outBuf); err != nil {
		return nil, fmt.Errorf("kernels: support download: %w", err)
	}
	out := make([]int, len(cands))
	for i, v := range out32 {
		out[i] = int(v)
	}
	return out, nil
}
