package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gpapriori"
	"gpapriori/internal/dataset"
)

// sample is one job as its client saw it.
type sample struct {
	req gpapriori.ServeMineRequest
	// submit is the POST round trip; first and total run from the POST
	// to the first and the final stream event.
	submit, first, total time.Duration
	events               int
	info                 *gpapriori.ServeJobInfo
	// rs is the result rebuilt from the streamed events.
	rs  *dataset.ResultSet
	err error
}

// runJob submits req through cl and consumes its stream to the final
// event. With a tracer it records the job's spans under job, rooted at
// a span called root.
func runJob(ctx context.Context, cl *gpapriori.ServeClient, req gpapriori.ServeMineRequest, tr *tracer, job, root string) sample {
	s := sample{req: req, rs: &dataset.ResultSet{}}
	t0 := time.Now()
	ack, err := cl.Submit(ctx, req)
	tAck := time.Now()
	s.submit = tAck.Sub(t0)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	type arrival struct {
		at    time.Time
		final bool
	}
	var arrivals []arrival
	final, err := cl.Stream(ctx, ack.ID, func(ev gpapriori.ServeGenerationEvent) error {
		arrivals = append(arrivals, arrival{time.Now(), ev.Final})
		for _, is := range ev.Itemsets {
			s.rs.Add(is.Items, is.Support)
		}
		return nil
	})
	if err != nil {
		s.err = fmt.Errorf("stream: %w", err)
		return s
	}
	if len(arrivals) == 0 || !arrivals[len(arrivals)-1].final {
		s.err = fmt.Errorf("stream of %s ended without a final event", ack.ID)
		return s
	}
	last := arrivals[len(arrivals)-1]
	s.info, s.events = final, len(arrivals)
	s.first, s.total = arrivals[0].at.Sub(t0), last.at.Sub(t0)
	if tr != nil {
		rootID := tr.add(job, root, 0, t0, last.at)
		tr.add(job, "server.submit", rootID, t0, tAck)
		streamID := tr.add(job, "server.stream", rootID, tAck, last.at)
		prev := tAck
		for _, a := range arrivals {
			name := "stream.event"
			if a.final {
				name = "stream.final"
			}
			tr.add(job, name, streamID, prev, a.at)
			prev = a.at
		}
	}
	return s
}

// ok reports whether the job ended done with an intact stream.
func (s *sample) ok() bool {
	return s.err == nil && s.info.State == gpapriori.JobDone.String()
}

// describe names a failed job's cause.
func (s *sample) describe() string {
	if s.err != nil {
		return s.err.Error()
	}
	return fmt.Sprintf("ended %s: %s", s.info.State, s.info.Error)
}

// phase is one timed closed-loop window.
type phase struct {
	samples       []sample
	elapsed       time.Duration
	before, after procSample
	// peakRSSMB is VmHWM over the window's first minJobs jobs.
	peakRSSMB float64
	// statsBefore/After are every node's /statsz around the window.
	statsBefore, statsAfter []*gpapriori.ServeStats
}

// dispenser hands out the indices of a job sequence of n requests in
// order. It stops handing them out once dur has passed since start and
// minJobs have been handed out. The stop test and the increment happen
// under one lock, so the indices handed out are always the prefix
// [0, next).
type dispenser struct {
	mu      sync.Mutex
	next, n int
	minJobs int
	start   time.Time
	dur     time.Duration
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next >= d.n || (d.next >= d.minJobs && time.Since(d.start) >= d.dur) {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// runPhase drives f closed-loop from w.clients callers over seq. Each
// caller takes the next request of seq, sends it to its entry node and
// waits for the final event before taking another. Callers stop taking
// requests once dur has passed and minJobs have been taken; the window
// ends when the last job finishes. With a tracer, job i's spans carry
// the ID "job-<i>".
//
// Before the window the heap is collected and returned to the OS and
// VmHWM is reset, so set-up is charged neither to the window nor to its
// peak. The peak is read when the window's minJobs-th job finishes: a
// fixed job count, because every daemon keeps every job record and a
// peak read at the end would grow with throughput.
func runPhase(ctx context.Context, f *fleet, w *workload, seq []gpapriori.ServeMineRequest, dur time.Duration, minJobs int, tr *tracer) (*phase, error) {
	p := &phase{}
	var err error
	if p.statsBefore, err = f.stats(ctx); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting VmHWM: %w", err)
	}
	if p.before, err = sampleProc(); err != nil {
		return nil, err
	}
	samples := make([]sample, len(seq))
	var finished atomic.Int64
	var peakErr error
	d := &dispenser{n: len(seq), minJobs: minJobs, start: time.Now(), dur: dur}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				req := seq[i]
				samples[i] = runJob(ctx, f.nodes[f.entry(req)].cl, req, tr, fmt.Sprintf("job-%d", i), "job")
				if finished.Add(1) == int64(minJobs) {
					p.peakRSSMB, peakErr = peakRSSMB()
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(d.start)
	if peakErr != nil {
		return nil, peakErr
	}
	p.samples = samples[:d.next]
	if p.after, err = sampleProc(); err != nil {
		return nil, err
	}
	if p.statsAfter, err = f.stats(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// warm runs w's fixed warm-up list. In cluster mode each query first
// goes to its owner, which mines and caches it, and then once through
// the non-owner, so the forwarding path is exercised before timing.
func warm(ctx context.Context, f *fleet, w *workload, rows map[string]int) error {
	reqs := w.warmup(rows)
	send := func(node int, req gpapriori.ServeMineRequest) error {
		s := runJob(ctx, f.nodes[node].cl, req, nil, "", "")
		if !s.ok() {
			return fmt.Errorf("warm-up %s on %s: %s", queryKey(req), f.nodes[node].url, s.describe())
		}
		return nil
	}
	for _, req := range reqs {
		if err := send(f.ownerOf(req), req); err != nil {
			return err
		}
	}
	if len(f.nodes) > 1 {
		for _, req := range reqs {
			if err := send(f.entry(req), req); err != nil {
				return err
			}
		}
	}
	return nil
}

// setUp boots w's daemons over reg and warms them. The caller closes
// the returned fleet.
func setUp(ctx context.Context, w *workload, reg *registry, hc *http.Client, work string) (*fleet, error) {
	f, err := bootFleet(w, reg, hc, work)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if err := warm(ctx, f, w, reg.rows); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// newHTTPClient is the benchmark's client transport: keep-alive
// connections enough for every caller and stream at once.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}}
}
