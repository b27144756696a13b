// Command servebench measures gpaserve end to end: each job is timed
// from a client's POST /v1/jobs to its final stream event. The daemons
// run in-process (server.New behind loopback http.Servers) and the load
// comes from the same process through gpapriori.ServeClient, closed
// loop. See README.md for the workloads, the metrics and the traced
// mode.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload paper-sim --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The exit code is 1 when a job failed or its result differs from the
// offline reference (the JSON line is still printed), and 2 when the
// run could not be made or missed its workload's shape (nothing is
// printed on standard output).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gpapriori"
	"gpapriori/internal/dataset"
)

// setupRounds is how many times an untraced run sets up; setup_s is
// the median.
const setupRounds = 3

// maxJobs bounds a generated job sequence.
const maxJobs = 20000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics keeps insertion order for the human-readable report.
type metrics struct {
	names []string
	m     map[string]metric
}

func (ms *metrics) put(name string, v float64, unit string) {
	if ms.m == nil {
		ms.m = map[string]metric{}
	}
	if _, dup := ms.m[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{v, unit}
}

type options struct {
	workload *workload
	seed     int64
	duration time.Duration
	minJobs  int
	trace    bool
	work     string
}

// minJobs is the fewest jobs a timed window completes, so that p90 has
// at least minAbove samples above it.
const minJobs = 100

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-sim, table2-durable or hot-fleet")
	seed := fs.Int64("seed", 1, "seed for job order and threshold offsets")
	seconds := fs.Float64("seconds", 10, "minimum length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for state directories and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "servebench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	return report(options{
		workload: w, seed: *seed, minJobs: minJobs, trace: *trace == 1, work: *work,
		duration: time.Duration(*seconds * float64(time.Second)),
	}, stdout, stderr)
}

// report measures opt, prints the metrics to stderr and the result line
// to stdout, and returns the exit code.
func report(opt options, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	measure := measureUntraced
	if opt.trace {
		measure = measureTraced
	}
	out, ms, err := measure(context.Background(), opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %s: %v\n", opt.workload.name, err)
		return 2
	}
	for _, n := range ms.names {
		fmt.Fprintf(stderr, "  %-34s %14.4f %s\n", n, ms.m[n].Value, ms.m[n].Unit)
	}
	out.Metrics = ms.m
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// measureUntraced sets up setupRounds times, keeps the last fleet,
// runs the timed window, checks its shape and outputs, and reports the
// end-to-end metrics.
func measureUntraced(ctx context.Context, opt options, log io.Writer) (*outcome, *metrics, error) {
	w := opt.workload
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var setups []float64
	var reg *registry
	var f *fleet
	for i := 0; i < setupRounds; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if reg, err = loadRegistry(w); err != nil {
			return nil, nil, err
		}
		if f, err = setUp(ctx, w, reg, hc, opt.work); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	seq := w.sequence(opt.seed, reg.rows, maxJobs)
	p, err := runPhase(ctx, f, w, seq, opt.duration, opt.minJobs, nil)
	if err == nil {
		err = checkShape(w, f, p, len(w.warmup(reg.rows)))
	}
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	out, _, err := checkOutputs(ctx, w, reg, log, p)
	if err != nil {
		return nil, nil, err
	}
	ms := &metrics{}
	ms.put("setup_s", median(setups), "s")
	endToEnd(ms, p, log)
	return out, ms, nil
}

// checkOutputs verifies the phases' jobs against offline references
// computed now, after the timed windows, and returns the references.
func checkOutputs(ctx context.Context, w *workload, reg *registry, log io.Writer, phases ...*phase) (*outcome, map[string]*reference, error) {
	var reqs []gpapriori.ServeMineRequest
	for _, p := range phases {
		for _, s := range p.samples {
			reqs = append(reqs, s.req)
		}
	}
	refs, err := references(ctx, w, reg, reqs)
	if err != nil {
		return nil, nil, err
	}
	out := &outcome{}
	for _, p := range phases {
		failed, why := verify(p.samples, refs)
		for _, msg := range why {
			fmt.Fprintln(log, "servebench: FAILED", msg)
		}
		out.Attempted += len(p.samples)
		out.Failed += failed
	}
	out.Correct = out.Failed == 0
	return out, refs, nil
}

// okSamples returns the phase's jobs that ended done.
func okSamples(p *phase) []*sample {
	var out []*sample
	for i := range p.samples {
		if p.samples[i].ok() {
			out = append(out, &p.samples[i])
		}
	}
	return out
}

func jobsPerSecond(p *phase) float64 {
	return float64(len(p.samples)) / p.elapsed.Seconds()
}

// endToEnd adds the user-visible metrics of a timed window and logs
// the latency sample count with the highest percentile it supports.
func endToEnd(ms *metrics, p *phase, log io.Writer) {
	jobs := float64(len(p.samples))
	var total, first []float64
	for _, s := range okSamples(p) {
		total = append(total, millis(s.total))
		first = append(first, millis(s.first))
	}
	ms.put("jobs_per_s", jobsPerSecond(p), "1/s")
	ms.put("latency_p50_ms", percentile(total, 50), "ms")
	ms.put("latency_p90_ms", percentile(total, 90), "ms")
	ms.put("first_result_p50_ms", percentile(first, 50), "ms")
	ms.put("cpu_ms_per_job", millis(p.after.cpu-p.before.cpu)/jobs, "ms")
	ms.put("allocs_per_job", float64(p.after.mallocs-p.before.mallocs)/jobs, "count")
	ms.put("peak_rss_mb", p.peakRSSMB, "MB")

	n := len(total)
	tp := tailPercentile(n)
	fmt.Fprintf(log, "servebench: %d latency samples over %.2f s", n, p.elapsed.Seconds())
	if tp > 0 {
		fmt.Fprintf(log, "; highest percentile with ≥%d samples above: p%g = %.3f ms", minAbove, tp, percentile(total, tp))
	}
	if tp < 90 {
		fmt.Fprintf(log, " (p90 has fewer than %d samples above it)", minAbove)
	}
	fmt.Fprintln(log)
}

// measureTraced runs the workload twice on fresh daemons with the same
// seed, untraced and then traced, and reports the per-layer metrics:
// client spans and /statsz deltas of the traced window, a replay of
// every distinct query through the layer functions, and, in cluster
// mode, one direct send of each query to its owner.
func measureTraced(ctx context.Context, opt options, log io.Writer) (*outcome, *metrics, error) {
	w := opt.workload
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	reg, err := loadRegistry(w)
	if err != nil {
		return nil, nil, err
	}
	seq := w.sequence(opt.seed, reg.rows, maxJobs)
	warmJobs := len(w.warmup(reg.rows))

	window := func(tr *tracer, extra func(*fleet, *phase) error) (*phase, error) {
		f, err := setUp(ctx, w, reg, hc, opt.work)
		if err != nil {
			return nil, err
		}
		p, err := runPhase(ctx, f, w, seq, opt.duration, opt.minJobs, tr)
		if err == nil {
			err = checkShape(w, f, p, warmJobs)
		}
		if err == nil && extra != nil {
			err = extra(f, p)
		}
		if cerr := f.close(); err == nil {
			err = cerr
		}
		return p, err
	}
	untraced, err := window(nil, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	direct := map[string]time.Duration{}
	traced, err := window(tr, func(f *fleet, p *phase) error {
		if len(f.nodes) == 1 {
			return nil
		}
		for i, q := range distinct(p.samples) {
			s := runJob(ctx, f.nodes[f.ownerOf(q.req)].cl, q.req, tr, fmt.Sprintf("job-%d", q.first), "peer.direct")
			if !s.ok() {
				return fmt.Errorf("direct send %d to owner: %s", i, s.describe())
			}
			direct[queryKey(q.req)] = s.total
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out, refs, err := checkOutputs(ctx, w, reg, log, untraced, traced)
	if err != nil {
		return nil, nil, err
	}
	ms := &metrics{}
	if err := perLayer(ctx, ms, w, reg, traced, refs, direct, tr, opt.work); err != nil {
		return nil, nil, err
	}
	ms.put("bench.trace_jobs_per_s_ratio", jobsPerSecond(traced)/jobsPerSecond(untraced), "ratio")
	path := filepath.Join(opt.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, opt.seed))
	if err := tr.write(path, w.name, opt.seed); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(log, "servebench: %d spans written to %s\n", len(tr.spans), path)
	return out, ms, nil
}

// distinctQuery is a query's first job index in a phase.
type distinctQuery struct {
	req   gpapriori.ServeMineRequest
	first int
}

// distinct lists the phase's distinct queries in order of first use.
func distinct(samples []sample) []distinctQuery {
	seen := map[string]bool{}
	var out []distinctQuery
	for i, s := range samples {
		if k := queryKey(s.req); !seen[k] {
			seen[k] = true
			out = append(out, distinctQuery{s.req, i})
		}
	}
	return out
}

// maxReplayed caps the distinct queries a traced run replays. Every
// table2-durable job is a distinct query, and replaying all of them
// (about 0.5 s each) would push a traced run past three minutes.
const maxReplayed = 24

// replayRounds is how many times each replayed query runs: at least a
// dozen replays in all, and the median per query is used.
func replayRounds(queries int) int {
	return max(1, (12+queries-1)/queries)
}

// perLayer adds the per-layer metrics of the traced window p.
func perLayer(ctx context.Context, ms *metrics, w *workload, reg *registry, p *phase,
	refs map[string]*reference, direct map[string]time.Duration, tr *tracer, work string) error {
	samples := okSamples(p)
	if len(samples) == 0 {
		return errors.New("no job of the traced window succeeded")
	}
	jobs := float64(len(p.samples))
	perJob := func(f func(s *sample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}

	ms.put("server.registry_load_s", reg.loadSeconds, "s")
	ms.put("server.submit_ms_p50", median(perJob(func(s *sample) float64 { return millis(s.submit) })), "ms")
	ms.put("server.stream_ms_p50", median(perJob(func(s *sample) float64 { return millis(s.total - s.submit) })), "ms")
	ms.put("server.events_per_job", mean(perJob(func(s *sample) float64 { return float64(s.events) })), "count")
	ms.put("server.result_bytes_per_job", mean(perJob(func(s *sample) float64 { return float64(len(refs[queryKey(s.req)].body)) })), "bytes")

	d := statDeltas(p)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms.put("server.cache_hit_ratio", ratio(d.hits, d.hits+d.misses), "ratio")
	ms.put("server.cache_evictions_per_job", float64(d.evictions)/jobs, "count")
	ms.put("peer.forwarded_ratio", float64(d.forwarded)/jobs, "ratio")
	hop := 0.0
	if len(direct) > 0 {
		hop = median(perJob(func(s *sample) float64 { return millis(s.total - direct[queryKey(s.req)]) }))
	}
	ms.put("peer.hop_ms_p50", hop, "ms")

	// Replay the distinct queries through the layer functions. The
	// replay-derived metrics cover the jobs whose query was replayed.
	byQuery := map[string]*layerTimes{}
	idbs := map[string]*dataset.DB{}
	queries := distinct(p.samples)
	if len(queries) > maxReplayed {
		queries = queries[:maxReplayed]
	}
	for _, q := range queries {
		db := reg.db(q.req.Dataset)
		if idbs[q.req.Dataset] == nil {
			idb, err := internalDB(db)
			if err != nil {
				return fmt.Errorf("%s: %w", q.req.Dataset, err)
			}
			idbs[q.req.Dataset] = idb
		}
		var rounds []*layerTimes
		for r := 0; r < replayRounds(len(queries)); r++ {
			lt, err := replayQuery(ctx, w, tr, fmt.Sprintf("job-%d", q.first), q.req, db, idbs[q.req.Dataset], refs[queryKey(q.req)], work)
			if err != nil {
				return fmt.Errorf("replay %s: %w", queryKey(q.req), err)
			}
			rounds = append(rounds, lt)
		}
		byQuery[queryKey(q.req)] = medianLayers(rounds)
	}
	layer := func(f func(lt *layerTimes) float64) []float64 {
		var out []float64
		for _, s := range samples {
			if lt := byQuery[queryKey(s.req)]; lt != nil {
				out = append(out, f(lt))
			}
		}
		return out
	}
	// A layer the replay skips leaves its fields 0, so metrics of layers
	// a workload does not reach read 0.
	ms.put("checkpoint.fingerprint_ms_p50", median(layer(func(lt *layerTimes) float64 { return millis(lt.fingerprint) })), "ms")
	ms.put("checkpoint.save_ms_per_job", mean(layer(func(lt *layerTimes) float64 { return millis(lt.saveTime) })), "ms")
	ms.put("checkpoint.saves_per_job", mean(layer(func(lt *layerTimes) float64 { return float64(lt.saves) })), "count")
	ms.put("checkpoint.bytes_per_job", mean(layer(func(lt *layerTimes) float64 { return float64(lt.saveBytes) })), "bytes")

	wait, waited := 0.0, 0
	for i, a := range p.statsAfter {
		if a.Jobs.Admitted > p.statsBefore[i].Jobs.Admitted {
			wait += float64(a.Overload.SojournByPriorityMs[0])
			waited++
		}
	}
	ms.put("jobs.admission_wait_ms", wait/math.Max(1, float64(waited)), "ms")
	ms.put("jobs.admitted_ratio", ratio(d.admitted, d.submitted), "ratio")

	ms.put("apriori.mine_ms_p50", median(layer(func(lt *layerTimes) float64 { return millis(lt.mine) })), "ms")
	ms.put("apriori.generations_per_job", mean(layer(func(lt *layerTimes) float64 { return float64(lt.generations) })), "count")
	ms.put("vertical.build_ms_p50", median(layer(func(lt *layerTimes) float64 { return millis(lt.build) })), "ms")
	ms.put("resultio.render_ms_p50", median(layer(func(lt *layerTimes) float64 { return millis(lt.render) })), "ms")

	ms.put("core.host_ms_p50", median(layer(func(lt *layerTimes) float64 { return millis(lt.host) })), "ms")
	ms.put("gpusim.exec_ms_p50", median(layer(func(lt *layerTimes) float64 { return millis(lt.exec) })), "ms")
	ms.put("gpusim.ns_per_thread", median(layer(func(lt *layerTimes) float64 {
		return float64(lt.exec) / math.Max(1, float64(lt.threads))
	})), "ns")
	ms.put("gpusim.allocs_per_job", mean(layer(func(lt *layerTimes) float64 { return float64(lt.simAllocs) })), "count")
	ms.put("gpusim.threads_per_job", mean(layer(func(lt *layerTimes) float64 { return float64(lt.threads) })), "count")
	ms.put("gpusim.barriers_per_job", mean(layer(func(lt *layerTimes) float64 { return float64(lt.barriers) })), "count")
	ms.put("kernels.launches_per_job", mean(layer(func(lt *layerTimes) float64 { return float64(lt.launches) })), "count")
	ms.put("gpusim.modeled_device_ms_per_job", mean(layer(func(lt *layerTimes) float64 { return lt.modeledDeviceMS })), "ms")
	return nil
}
