package kernels

import (
	"fmt"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/vertical"
)

// DeviceTidsets is a tidset vertical database resident in device memory,
// used only by the Figure 3 ablation: it demonstrates why GPApriori
// rejects the tidset layout on a GPU. Tidsets are stored back-to-back
// with an offsets directory.
type DeviceTidsets struct {
	dev      *gpusim.Device
	tids     gpusim.Buffer // all transaction ids, item-major
	offsets  gpusim.Buffer // numItems+1 prefix offsets into tids
	numItems int
	numTrans int
	lengths  []int // host copy of list lengths for geometry decisions
}

// UploadTidsets flattens and uploads a tidset database.
func UploadTidsets(dev *gpusim.Device, v *vertical.TidsetDB) (*DeviceTidsets, error) {
	if len(v.Lists) == 0 {
		return nil, fmt.Errorf("kernels: empty tidset database")
	}
	offsets := make([]uint32, len(v.Lists)+1)
	total := 0
	for i, l := range v.Lists {
		offsets[i] = uint32(total)
		total += len(l)
	}
	offsets[len(v.Lists)] = uint32(total)
	flat := make([]uint32, 0, total)
	lengths := make([]int, len(v.Lists))
	for i, l := range v.Lists {
		lengths[i] = len(l)
		flat = append(flat, l...)
	}
	if total == 0 {
		return nil, fmt.Errorf("kernels: tidset database has no occurrences")
	}
	tidBuf, err := dev.Malloc(total)
	if err != nil {
		return nil, fmt.Errorf("kernels: tidset upload: %w", err)
	}
	offBuf, err := dev.Malloc(len(offsets))
	if err != nil {
		return nil, fmt.Errorf("kernels: offsets upload: %w", err)
	}
	if err := dev.TryCopyToDevice(tidBuf, flat); err != nil {
		return nil, fmt.Errorf("kernels: tidset upload: %w", err)
	}
	if err := dev.TryCopyToDevice(offBuf, offsets); err != nil {
		return nil, fmt.Errorf("kernels: offsets upload: %w", err)
	}
	return &DeviceTidsets{
		dev: dev, tids: tidBuf, offsets: offBuf,
		numItems: len(v.Lists), numTrans: v.NumTrans, lengths: lengths,
	}, nil
}

// SupportCounts computes candidate supports with a thread-per-candidate
// k-way merge join over the device tidsets. The walk advances one list
// pointer per step based on data values, so lanes of a warp touch
// unrelated addresses — the uncoalesced pattern of Figure 3(a). Functional
// results are identical to the bitset kernel; only the modeled time
// differs.
func (d *DeviceTidsets) SupportCounts(cands [][]dataset.Item, blockSize int) ([]int, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	if blockSize <= 0 {
		blockSize = 256
	}
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
	defer d.dev.FreeAllAbove(d.offsets)
	if err := d.dev.TryCopyToDevice(candBuf, flat); err != nil {
		return nil, fmt.Errorf("kernels: candidate upload: %w", err)
	}

	grid := (len(cands) + blockSize - 1) / blockSize
	n := len(cands)
	tids, offsets := d.tids, d.offsets

	_, lerr := d.dev.TryLaunch(gpusim.LaunchConfig{Grid: grid, Block: blockSize}, 0, func(ctx *gpusim.Ctx) {
		cand := ctx.GlobalThreadID()
		if cand >= n {
			return
		}
		// Per-candidate k-way merge join: advance the pointer with the
		// smallest head; when all heads match, count a supporting tid.
		ptr := make([]int, k)
		end := make([]int, k)
		for j := 0; j < k; j++ {
			item := int(ctx.LoadGlobal(candBuf, cand*k+j))
			ptr[j] = int(ctx.LoadGlobal(offsets, item))
			end[j] = int(ctx.LoadGlobal(offsets, item+1))
		}
		count := uint32(0)
		for {
			// Load the k heads; find max; check all-equal.
			exhausted := false
			var maxV uint32
			allEq := true
			var first uint32
			for j := 0; j < k; j++ {
				if ptr[j] >= end[j] {
					exhausted = true
					break
				}
				v := ctx.LoadGlobal(tids, ptr[j])
				if j == 0 {
					first, maxV = v, v
				} else {
					if v != first {
						allEq = false
					}
					if v > maxV {
						maxV = v
					}
				}
			}
			ctx.Compute(2 * k) // compares and pointer math
			if ctx.Branch(exhausted) {
				break
			}
			// The all-heads-equal decision is data-dependent per lane —
			// the divergence Figure 3 blames on tidset joins.
			if ctx.Branch(allEq) {
				count++
				for j := 0; j < k; j++ {
					ptr[j]++
				}
				continue
			}
			for j := 0; j < k; j++ {
				v := ctx.LoadGlobal(tids, ptr[j])
				if v < maxV {
					ptr[j]++
				}
			}
		}
		ctx.StoreGlobal(outBuf, cand, count)
	})
	if lerr != nil {
		return nil, fmt.Errorf("kernels: tidset-join launch: %w", lerr)
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
