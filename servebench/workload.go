package main

import (
	"fmt"
	"math/rand"

	"gpapriori"
)

// mixEntry is one query of a blocked mix: weight copies of it appear in
// every block of the job sequence.
type mixEntry struct {
	dataset string
	rel     float64
	weight  int
}

// thresholdBand describes a sequence in which every job has its own
// absolute threshold: floor(N/2)+1 plus a distinct offset in [0, width),
// where N is the dataset's transaction count.
type thresholdBand struct {
	dataset string
	width   int
}

// workload is one single-shape closed-loop traffic mix. Dataset shapes
// are fixed here; the seed picks only job order and threshold offsets.
type workload struct {
	name string
	// datasets are registry specs; each is also the registry name.
	datasets []string
	// nodes is the daemon count (cluster mode when > 1), each with one
	// worker; clients is the number of closed-loop callers.
	nodes, clients int
	// cacheBytes is the result-cache budget per daemon (0 = off).
	cacheBytes int64
	// durable gives every daemon a fresh state directory.
	durable   bool
	algorithm string
	// Exactly one of mix and band is set.
	mix  []mixEntry
	band *thresholdBand
}

// base is the band's lowest threshold for a dataset of rows
// transactions.
func (b *thresholdBand) base(rows int) int { return rows/2 + 1 }

var workloads = []*workload{
	{
		// The paper's algorithm on its SLO shape. The simulator is ~99%
		// of each job's wall time. quest seed 1 carries 7 of every 10
		// jobs so that p50 and p90 sit inside one cost mode rather than
		// between two.
		name:     "paper-sim",
		datasets: []string{"quest:80:3000:10:1", "quest:80:3000:10:2", "quest:80:3000:10:3", "gen:chess:0.3"},
		nodes:    1, clients: 1,
		algorithm: string(gpapriori.AlgoGPApriori),
		mix: []mixEntry{
			{"quest:80:3000:10:1", 0.15, 7},
			{"quest:80:3000:10:2", 0.15, 1},
			{"quest:80:3000:10:3", 0.15, 1},
			{"gen:chess:0.3", 0.90, 1},
		},
	},
	{
		// Table 2's dense headline shape with durability on: every job
		// is a new fingerprint, so level-wise counting, 11 fsync'd
		// checkpoints and cache writes with evictions all run. Two
		// clients on one worker keep one job waiting for admission. The
		// cache holds about a dozen 85 KB results.
		name:     "table2-durable",
		datasets: []string{"gen:accidents:0.3"},
		nodes:    1, clients: 2,
		cacheBytes: 1 << 20,
		durable:    true,
		algorithm:  string(gpapriori.AlgoCPUBitset),
		band:       &thresholdBand{dataset: "gen:accidents:0.3", width: 1024},
	},
	{
		// The read path: every timed request enters at a non-owner and
		// is a forwarded cache hit on the owner. Popularity is Zipf
		// (weight ≈ 20/rank over 12 queries).
		name:     "hot-fleet",
		datasets: []string{"quest:1000:20000:40:1", "quest:1000:20000:40:2", "quest:1000:20000:40:3", "quest:1000:20000:40:4"},
		nodes:    2, clients: 2,
		cacheBytes: 4 << 20,
		algorithm:  string(gpapriori.AlgoPipeline),
		mix:        zipfMix([]string{"quest:1000:20000:40:1", "quest:1000:20000:40:2", "quest:1000:20000:40:3", "quest:1000:20000:40:4"}, []float64{0.02, 0.025, 0.03}),
	},
}

// zipfMix crosses datasets with supports and weights rank r (1-based,
// dataset-major) by round(20/r).
func zipfMix(datasets []string, supports []float64) []mixEntry {
	var out []mixEntry
	for _, ds := range datasets {
		for _, s := range supports {
			r := len(out) + 1
			out = append(out, mixEntry{dataset: ds, rel: s, weight: (40/r + 1) / 2})
		}
	}
	return out
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w *workload) request(ds string, rel float64, minSup int) gpapriori.ServeMineRequest {
	return gpapriori.ServeMineRequest{Dataset: ds, Algorithm: w.algorithm, RelativeSupport: rel, MinSupport: minSup}
}

// sequence returns up to n timed requests for seed. rows maps each
// dataset to its transaction count. A blocked mix repeats blocks that
// hold exactly weight copies of each entry in seeded order, so the
// per-dataset shares are exact at every block boundary. A band returns
// distinct thresholds and stops at the band's width.
func (w *workload) sequence(seed int64, rows map[string]int, n int) []gpapriori.ServeMineRequest {
	rng := rand.New(rand.NewSource(seed))
	var out []gpapriori.ServeMineRequest
	if w.band != nil {
		base := w.band.base(rows[w.band.dataset])
		for _, off := range rng.Perm(w.band.width) {
			if len(out) == n {
				break
			}
			out = append(out, w.request(w.band.dataset, 0, base+off))
		}
		return out
	}
	var block []gpapriori.ServeMineRequest
	for _, e := range w.mix {
		for i := 0; i < e.weight; i++ {
			block = append(block, w.request(e.dataset, e.rel, 0))
		}
	}
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// warmup is the fixed request list run after boot and before timing:
// each mix entry once, or two thresholds just past the band.
func (w *workload) warmup(rows map[string]int) []gpapriori.ServeMineRequest {
	if w.band != nil {
		base := w.band.base(rows[w.band.dataset]) + w.band.width
		return []gpapriori.ServeMineRequest{
			w.request(w.band.dataset, 0, base),
			w.request(w.band.dataset, 0, base+1),
		}
	}
	var out []gpapriori.ServeMineRequest
	for _, e := range w.mix {
		out = append(out, w.request(e.dataset, e.rel, 0))
	}
	return out
}

// queryKey identifies a distinct query of a sequence.
func queryKey(r gpapriori.ServeMineRequest) string {
	return fmt.Sprintf("%s|%s|%d|%g", r.Dataset, r.Algorithm, r.MinSupport, r.RelativeSupport)
}
