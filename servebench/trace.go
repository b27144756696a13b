package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gpapriori"
	"gpapriori/internal/apriori"
	"gpapriori/internal/checkpoint"
	"gpapriori/internal/core"
	"gpapriori/internal/dataset"
	"gpapriori/internal/kernels"
	"gpapriori/internal/vertical"
)

// span is one timed interval of a job. Spans of one job share Job;
// Parent is the ID of the enclosing span (0 for a job's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Job     string `json:"job"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(job, name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		StartUS: start.Sub(t.t0).Microseconds(), EndUS: end.Sub(t.t0).Microseconds(),
	})
	return id
}

// finish sets span id's end to now.
func (t *tracer) finish(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = time.Since(t.t0).Microseconds()
}

// timed runs fn and records it as a span.
func (t *tracer) timed(job, name string, parent int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(job, name, parent, start, end)
	return end.Sub(start), err
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTimes is the replay's measurement of one distinct query.
type layerTimes struct {
	fingerprint, build, mine, render time.Duration
	generations                      int
	saves                            int
	saveTime                         time.Duration
	saveBytes                        int64
	// The gpapriori layers: measured host time, executor time
	// (wall − host), and the deterministic device counts.
	host, exec                  time.Duration
	simAllocs                   uint64
	threads, barriers, launches int64
	modeledDeviceMS             float64
}

// replayQuery runs one distinct query through each layer function the
// workload's served path reaches, recording each call as a span under
// job. db is the registry's database and idb the same rows in the
// internal layout.
func replayQuery(ctx context.Context, w *workload, tr *tracer, job string, req gpapriori.ServeMineRequest,
	db *gpapriori.Database, idb *dataset.DB, ref *reference, scratch string) (*layerTimes, error) {
	lt := &layerTimes{}
	now := time.Now()
	root := tr.add(job, "replay", 0, now, now)
	defer tr.finish(root)
	cfg := req.MiningConfig()
	var key uint64
	var minSup int
	var err error
	lt.fingerprint, err = tr.timed(job, "gpapriori.ResultFingerprint", root, func() error {
		key, minSup, err = gpapriori.ResultFingerprint(db, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	lt.render, _ = tr.timed(job, "resultio.Write", root, func() error {
		render(ref.rs)
		return nil
	})
	if w.nodes > 1 {
		// Cluster timed jobs are all cache hits: nothing below the
		// cache runs.
		return lt, nil
	}
	lt.build, _ = tr.timed(job, "vertical.BuildBitsets", root, func() error {
		vertical.BuildBitsets(idb)
		return nil
	})
	lt.mine, err = tr.timed(job, "gpapriori.MineContext", root, func() error {
		_, err := gpapriori.MineContext(ctx, db, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var snaps [][]gpapriori.Itemset
	hooked := cfg
	hooked.OnGeneration = func(gen int, frequent []gpapriori.Itemset) { snaps = append(snaps, frequent) }
	if _, err := tr.timed(job, "gpapriori.MineContext+OnGeneration", root, func() error {
		_, err := gpapriori.MineContext(ctx, db, hooked)
		return err
	}); err != nil {
		return nil, err
	}
	lt.generations = len(snaps)
	if w.durable {
		path := filepath.Join(scratch, "replay.ckpt")
		for i, frequent := range snaps {
			snap := checkpoint.Snapshot{
				Gen: i + 1, MinSupport: minSup, MaxLen: cfg.MaxLen, Fingerprint: key,
				Meta:     map[string]string{"algorithm": req.Algorithm},
				Frequent: toResultSet(frequent),
			}
			d, err := tr.timed(job, "checkpoint.Save", root, func() error { return checkpoint.Save(path, snap) })
			if err != nil {
				return nil, err
			}
			fi, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			lt.saves++
			lt.saveTime += d
			lt.saveBytes += fi.Size()
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	if req.Algorithm == string(gpapriori.AlgoGPApriori) {
		m, err := core.New(idb, core.Options{Kernel: kernels.DefaultOptions()})
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		var rep core.Report
		runtime.ReadMemStats(&before)
		wall, err := tr.timed(job, "core.Miner.MineContext", root, func() error {
			rep, err = m.MineContext(ctx, minSup, apriori.Config{MaxLen: cfg.MaxLen})
			return err
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		lt.host = time.Duration(rep.HostSeconds * float64(time.Second))
		lt.exec = wall - lt.host
		lt.simAllocs = after.Mallocs - before.Mallocs
		lt.threads = rep.DeviceStats.ThreadsRun
		lt.barriers = rep.DeviceStats.Barriers
		lt.launches = rep.DeviceStats.KernelLaunches
		lt.modeledDeviceMS = rep.Device.Total() * 1000
	}
	return lt, nil
}

// internalDB copies a served database into the internal layout the
// layer functions take, and checks that the copy has the same content
// fingerprint.
func internalDB(db *gpapriori.Database) (*dataset.DB, error) {
	rows := make([][]dataset.Item, db.Len())
	for i := range rows {
		rows[i] = db.Transaction(i)
	}
	idb := dataset.New(rows)
	want, err := gpapriori.DatasetFingerprint(db)
	if err != nil {
		return nil, err
	}
	if checkpoint.Fingerprint(idb, 0, 0) != want {
		return nil, fmt.Errorf("internal copy of the database differs from the served one")
	}
	return idb, nil
}

// medianLayers folds replays of one query: each timing is the median
// over the rounds; counts are deterministic and taken from the first.
func medianLayers(rounds []*layerTimes) *layerTimes {
	out := *rounds[0]
	med := func(f func(lt *layerTimes) time.Duration) time.Duration {
		xs := make([]float64, len(rounds))
		for i, lt := range rounds {
			xs[i] = float64(f(lt))
		}
		return time.Duration(median(xs))
	}
	out.fingerprint = med(func(lt *layerTimes) time.Duration { return lt.fingerprint })
	out.build = med(func(lt *layerTimes) time.Duration { return lt.build })
	out.mine = med(func(lt *layerTimes) time.Duration { return lt.mine })
	out.render = med(func(lt *layerTimes) time.Duration { return lt.render })
	out.saveTime = med(func(lt *layerTimes) time.Duration { return lt.saveTime })
	out.host = med(func(lt *layerTimes) time.Duration { return lt.host })
	out.exec = med(func(lt *layerTimes) time.Duration { return lt.exec })
	return &out
}
