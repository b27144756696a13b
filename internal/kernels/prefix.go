// The prefix-class kernel variant: candidate generation joins within
// (k−1)-prefix equivalence classes, so candidates of one generation
// arrive in contiguous runs sharing all but their last item. The paper's
// complete intersection re-reads all k first-generation vectors for every
// candidate (k global loads per word per candidate); this variant
// materializes each class's shared intersection once in device scratch
// (phase A) and then counts every member as popcount(class ∧ last)
// (phase B, 2 loads per word). For a class of m candidates the traffic
// drops from m·k to (k−1) + 1 + 2m words per vector word, a win exactly
// when m·(k−2) > k — the gpusim timing model credits the saved loads
// automatically because it prices the loads the kernel actually issues.
//
// Classes where the saving is non-positive are counted by the complete
// kernel in the same generation, and the whole generation falls back to
// complete intersection when even one class vector cannot fit the scratch
// budget — mirroring the paper's Section III choice of recomputing
// intersections rather than holding intermediate generations in device
// memory.
package kernels

import (
	"fmt"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
)

// classRun is one contiguous (k−1)-prefix class: candidates [lo,hi).
type classRun struct {
	lo, hi int
}

// splitClasses scans the contiguous prefix classes of one generation and
// partitions them by the profitability rule m·(k−2) > k.
func splitClasses(cands [][]dataset.Item, k int) (profitable []classRun, rest []int) {
	for lo := 0; lo < len(cands); {
		hi := lo + 1
	scan:
		for hi < len(cands) {
			for j := 0; j < k-1; j++ {
				if cands[hi][j] != cands[lo][j] {
					break scan
				}
			}
			hi++
		}
		if m := hi - lo; m*(k-2) > k {
			profitable = append(profitable, classRun{lo, hi})
		} else {
			for i := lo; i < hi; i++ {
				rest = append(rest, i)
			}
		}
		lo = hi
	}
	return profitable, rest
}

// supportCountsPrefix computes one generation's supports with the
// two-phase prefix-class kernels, delegating unprofitable classes to the
// complete kernel. Candidates are pre-validated by SupportCounts.
func (d *DeviceDB) supportCountsPrefix(cands [][]dataset.Item, k int, opt Options) ([]int, error) {
	classes, rest := splitClasses(cands, k)
	if len(classes) == 0 {
		return d.supportCountsComplete(cands, k, opt)
	}

	// Scratch budget: free device memory (minus slack for the phase
	// buffers' alignment), optionally capped by the options.
	free := d.dev.MemWords() - d.dev.AllocatedWords() - 64
	if opt.PrefixScratchWords > 0 && free > opt.PrefixScratchWords {
		free = opt.PrefixScratchWords
	}
	words := d.wordsPerVec
	// The smallest chunk is one class: its vector, its prefix ids, its
	// members' pair metadata and outputs.
	minNeed := words + (k - 1) + 2*(classes[0].hi-classes[0].lo) + (classes[0].hi - classes[0].lo)
	if minNeed > free {
		return d.supportCountsComplete(cands, k, opt)
	}

	out := make([]int, len(cands))

	// Chunk profitable classes to the scratch budget.
	for start := 0; start < len(classes); {
		end := start
		need := 0
		for end < len(classes) {
			c := classes[end]
			m := c.hi - c.lo
			n := need + words + (k - 1) + 3*m
			if end > start && n > free {
				break
			}
			need = n
			end++
		}
		if err := d.prefixChunk(cands, classes[start:end], k, opt, out); err != nil {
			return nil, err
		}
		start = end
	}

	// Unprofitable classes ride the complete kernel as one batch.
	if len(rest) > 0 {
		batch := make([][]dataset.Item, len(rest))
		for i, idx := range rest {
			batch[i] = cands[idx]
		}
		sups, err := d.supportCountsComplete(batch, k, opt)
		if err != nil {
			return nil, err
		}
		for i, idx := range rest {
			out[idx] = sups[i]
		}
	}
	return out, nil
}

// prefixChunk runs phases A and B over one chunk of classes, writing each
// candidate's support into out at its original index.
func (d *DeviceDB) prefixChunk(cands [][]dataset.Item, classes []classRun, k int, opt Options, out []int) error {
	nClasses := len(classes)
	nCands := 0
	for _, c := range classes {
		nCands += c.hi - c.lo
	}

	// Host-side flattening: per-class prefix ids, per-candidate
	// (class, last item) metadata.
	prefixIDs := make([]uint32, 0, nClasses*(k-1))
	pairMeta := make([]uint32, 0, 2*nCands)
	candIdx := make([]int, 0, nCands)
	for ci, c := range classes {
		for _, item := range cands[c.lo][:k-1] {
			prefixIDs = append(prefixIDs, uint32(item))
		}
		for i := c.lo; i < c.hi; i++ {
			pairMeta = append(pairMeta, uint32(ci), uint32(cands[i][k-1]))
			candIdx = append(candIdx, i)
		}
	}

	words := d.wordsPerVec
	classBuf, err := d.dev.Malloc(nClasses * words)
	if err != nil {
		return fmt.Errorf("kernels: class scratch: %w", err)
	}
	prefixBuf, err := d.dev.Malloc(len(prefixIDs))
	if err != nil {
		return fmt.Errorf("kernels: prefix upload: %w", err)
	}
	pairBuf, err := d.dev.Malloc(len(pairMeta))
	if err != nil {
		return fmt.Errorf("kernels: pair upload: %w", err)
	}
	outBuf, err := d.dev.Malloc(nCands)
	if err != nil {
		return fmt.Errorf("kernels: support buffer: %w", err)
	}
	defer d.dev.FreeAllAbove(d.vectors)

	if err := d.dev.TryCopyToDevice(prefixBuf, prefixIDs); err != nil {
		return fmt.Errorf("kernels: prefix upload: %w", err)
	}
	if err := d.dev.TryCopyToDevice(pairBuf, pairMeta); err != nil {
		return fmt.Errorf("kernels: pair upload: %w", err)
	}

	vectors := d.vectors

	// Phase A: one block per class materializes the shared (k−1)-prefix
	// intersection into classBuf.
	sharedA := 0
	if opt.Preload {
		sharedA = k - 1
	}
	cfgA := gpusim.LaunchConfig{Grid: nClasses, Block: opt.BlockSize, SharedWords: sharedA}
	var phasesA []gpusim.Kernel
	if opt.Preload {
		phasesA = append(phasesA, preloadPhase(prefixBuf, k-1, 0))
	}
	phasesA = append(phasesA, func(ctx *gpusim.Ctx) {
		cls := ctx.BlockIdx
		tid := ctx.ThreadIdx
		itemAt := func(j int) int {
			if opt.Preload {
				return int(ctx.LoadShared(j))
			}
			return int(ctx.LoadGlobal(prefixBuf, cls*(k-1)+j))
		}
		steps := 0
		for w := tid; w < words; w += ctx.BlockDim {
			acc := ctx.LoadGlobal(vectors, itemAt(0)*words+w)
			for j := 1; j < k-1; j++ {
				acc &= ctx.LoadGlobal(vectors, itemAt(j)*words+w)
			}
			ctx.Compute(k - 2) // the AND chain
			ctx.StoreGlobal(classBuf, cls*words+w, acc)
			steps++
		}
		ctx.Compute((steps + opt.Unroll - 1) / opt.Unroll)
	})
	_, lerr := d.dev.TryLaunch(cfgA, opt.DeadlineSec, phasesA...)
	if lerr != nil {
		return fmt.Errorf("kernels: prefix phase-A launch: %w", lerr)
	}

	// Phase B: one block per candidate counts popcount(class ∧ last) with
	// the Figure 5 tree reduction.
	sharedB := opt.BlockSize
	if opt.Preload {
		sharedB += 2
	}
	cfgB := gpusim.LaunchConfig{Grid: nCands, Block: opt.BlockSize, SharedWords: sharedB}
	var phasesB []gpusim.Kernel
	metaShared := opt.BlockSize
	if opt.Preload {
		phasesB = append(phasesB, preloadPhase(pairBuf, 2, metaShared))
	}
	phasesB = append(phasesB, func(ctx *gpusim.Ctx) {
		cand := ctx.BlockIdx
		tid := ctx.ThreadIdx
		metaAt := func(j int) int {
			if opt.Preload {
				return int(ctx.LoadShared(metaShared + j))
			}
			return int(ctx.LoadGlobal(pairBuf, cand*2+j))
		}
		sum := uint32(0)
		steps := 0
		for w := tid; w < words; w += ctx.BlockDim {
			acc := ctx.LoadGlobal(classBuf, metaAt(0)*words+w) &
				ctx.LoadGlobal(vectors, metaAt(1)*words+w)
			ctx.Compute(1) // the single AND
			sum += ctx.Popc(acc)
			steps++
		}
		ctx.Compute((steps + opt.Unroll - 1) / opt.Unroll)
		ctx.StoreShared(tid, sum)
	})
	phasesB = append(phasesB, reducePhases(opt.BlockSize, outBuf)...)
	_, lerr = d.dev.TryLaunch(cfgB, opt.DeadlineSec, phasesB...)
	if lerr != nil {
		return fmt.Errorf("kernels: prefix phase-B launch: %w", lerr)
	}

	out32 := make([]uint32, nCands)
	if err := d.dev.TryCopyFromDevice(out32, outBuf); err != nil {
		return fmt.Errorf("kernels: support download: %w", err)
	}
	for i, v := range out32 {
		out[candIdx[i]] = int(v)
	}
	return nil
}
