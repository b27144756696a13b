package main

import (
	"bytes"
	"context"
	"fmt"

	"gpapriori"
	"gpapriori/internal/dataset"
	"gpapriori/internal/resultio"
)

// reference is the offline answer to one distinct query.
type reference struct {
	rs   *dataset.ResultSet
	body []byte
	// deviceSeconds is the modeled device time of an offline
	// gpapriori run (0 for other algorithms).
	deviceSeconds float64
}

func render(rs *dataset.ResultSet) []byte {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = resultio.Write(&buf, rs)
	return buf.Bytes()
}

func toResultSet(its []gpapriori.Itemset) *dataset.ResultSet {
	rs := &dataset.ResultSet{}
	for _, is := range its {
		rs.Add(is.Items, is.Support)
	}
	return rs
}

// references mines every distinct query of reqs offline. A threshold
// band is mined once, with the pipeline miner, at its lowest threshold
// t0; the answer at t ≥ t0 is exactly the itemsets of that result with
// support ≥ t. Mixes are mined per query with the served algorithm.
func references(ctx context.Context, w *workload, reg *registry, reqs []gpapriori.ServeMineRequest) (map[string]*reference, error) {
	refs := map[string]*reference{}
	var band *dataset.ResultSet
	if w.band != nil && len(reqs) > 0 {
		lo := reqs[0].MinSupport
		for _, r := range reqs {
			lo = min(lo, r.MinSupport)
		}
		res, err := gpapriori.MineContext(ctx, reg.db(w.band.dataset), gpapriori.Config{Algorithm: gpapriori.AlgoPipeline, MinSupport: lo})
		if err != nil {
			return nil, fmt.Errorf("reference mine at %d: %w", lo, err)
		}
		band = toResultSet(res.Itemsets)
	}
	for _, r := range reqs {
		key := queryKey(r)
		if refs[key] != nil {
			continue
		}
		ref := &reference{}
		if band != nil {
			ref.rs = &dataset.ResultSet{}
			for _, is := range band.Sets {
				if is.Support >= r.MinSupport {
					ref.rs.Add(is.Items, is.Support)
				}
			}
		} else {
			res, err := gpapriori.MineContext(ctx, reg.db(r.Dataset), r.MiningConfig())
			if err != nil {
				return nil, fmt.Errorf("reference mine %s: %w", key, err)
			}
			ref.rs, ref.deviceSeconds = toResultSet(res.Itemsets), res.DeviceSeconds
		}
		ref.body = render(ref.rs)
		refs[key] = ref
	}
	return refs, nil
}

// verify checks every job against its reference: the job ended done,
// its stream rebuilt the reference's canonical bytes, and a gpapriori
// job reports the offline run's modeled device time, so repeats of one
// query agree exactly. It returns the failed count and the first few
// failures.
func verify(samples []sample, refs map[string]*reference) (int, []string) {
	failed := 0
	var why []string
	fail := func(i int, msg string) {
		failed++
		if len(why) < 5 {
			why = append(why, fmt.Sprintf("job-%d %s: %s", i, queryKey(samples[i].req), msg))
		}
	}
	for i := range samples {
		s := &samples[i]
		ref := refs[queryKey(s.req)]
		switch {
		case !s.ok():
			fail(i, s.describe())
		case !bytes.Equal(render(s.rs), ref.body):
			fail(i, fmt.Sprintf("streamed result (%d itemsets) differs from the offline reference (%d itemsets)", s.rs.Len(), ref.rs.Len()))
		case s.req.Algorithm == string(gpapriori.AlgoGPApriori) && s.info.DeviceSeconds != ref.deviceSeconds:
			fail(i, fmt.Sprintf("modeled device time %g s, offline %g s", s.info.DeviceSeconds, ref.deviceSeconds))
		}
	}
	return failed, why
}

// deltas sums the /statsz counters of every node over a phase.
type deltas struct {
	hits, misses, evictions int64
	forwarded               int64
	submitted, admitted     int64
}

func statDeltas(p *phase) deltas {
	var d deltas
	for i, a := range p.statsAfter {
		b := p.statsBefore[i]
		d.hits += a.Cache.Hits - b.Cache.Hits
		d.misses += a.Cache.Misses - b.Cache.Misses
		d.evictions += a.Cache.Evictions - b.Cache.Evictions
		d.submitted += a.Jobs.Submitted - b.Jobs.Submitted
		d.admitted += a.Jobs.Admitted - b.Jobs.Admitted
		if a.Cluster != nil {
			d.forwarded += a.Cluster.ForwardedJobs - b.Cluster.ForwardedJobs
		}
	}
	return d
}

// checkShape confirms that a timed phase ran the shape its workload
// exists for. warmJobs is how many warm-up jobs the fleet mined.
func checkShape(w *workload, f *fleet, p *phase, warmJobs int) error {
	d := statDeltas(p)
	jobs := int64(len(p.samples))
	var lifetimeHits, lifetimePuts int64
	for _, st := range p.statsAfter {
		lifetimeHits += st.Cache.Hits
		lifetimePuts += st.Cache.Puts
	}
	switch {
	case w.nodes > 1:
		if d.hits != jobs || d.misses != 0 {
			return fmt.Errorf("cache hits %d, misses %d over %d jobs: want every job a hit", d.hits, d.misses, jobs)
		}
		if d.forwarded != jobs {
			return fmt.Errorf("forwarded %d of %d jobs: want every job forwarded", d.forwarded, jobs)
		}
		for i := range p.samples {
			s := &p.samples[i]
			if s.ok() && (!s.info.Cached || s.info.Forwarded == "") {
				return fmt.Errorf("job-%d was not a forwarded cache hit (cached=%v forwarded=%q)", i, s.info.Cached, s.info.Forwarded)
			}
		}
	case w.durable:
		if lifetimeHits != 0 {
			return fmt.Errorf("%d cache hits: want none, every job is a new fingerprint", lifetimeHits)
		}
		files, err := f.checkpointFiles()
		if err != nil {
			return err
		}
		if want := warmJobs + len(p.samples); files != want {
			return fmt.Errorf("%d checkpoint files, want one per job (%d)", files, want)
		}
	case w.cacheBytes == 0:
		if lifetimeHits != 0 || lifetimePuts != 0 {
			return fmt.Errorf("cache traffic with the cache off: %d hits, %d puts", lifetimeHits, lifetimePuts)
		}
	}
	return nil
}
