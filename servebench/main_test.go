package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gpapriori"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-rank(tc.n, p) < minAbove {
			t.Errorf("tailPercentile(%d) = p%g has %d samples above it", tc.n, p, tc.n-rank(tc.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

// rowsFor fixes dataset sizes so the generator runs without loading.
func rowsFor(w *workload) map[string]int {
	rows := map[string]int{}
	for _, ds := range w.datasets {
		rows[ds] = 102055
	}
	return rows
}

func TestSequenceSeededAndShares(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rows := rowsFor(w)
			n := 300
			a, b := w.sequence(7, rows, n), w.sequence(7, rows, n)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed gave different sequences")
			}
			if reflect.DeepEqual(a, w.sequence(8, rows, n)) {
				t.Fatal("different seeds gave the same sequence")
			}
			if len(a) != n {
				t.Fatalf("got %d requests, want %d", len(a), n)
			}
			for _, r := range a {
				if r.Algorithm != w.algorithm {
					t.Fatalf("request %+v does not use %s", r, w.algorithm)
				}
			}
			if w.band != nil {
				checkBand(t, w, rows, a)
				return
			}
			block := 0
			for _, e := range w.mix {
				block += e.weight
			}
			k := 4
			seq := w.sequence(3, rows, k*block)
			count := map[string]int{}
			for _, r := range seq {
				count[queryKey(r)]++
			}
			for _, e := range w.mix {
				key := queryKey(w.request(e.dataset, e.rel, 0))
				if count[key] != k*e.weight {
					t.Errorf("%s: %d of %d jobs, want %d", key, count[key], len(seq), k*e.weight)
				}
			}
		})
	}
}

func checkBand(t *testing.T, w *workload, rows map[string]int, seq []gpapriori.ServeMineRequest) {
	t.Helper()
	base := w.band.base(rows[w.band.dataset])
	seen := map[int]bool{}
	for _, r := range seq {
		if r.Dataset != w.band.dataset || r.RelativeSupport != 0 {
			t.Fatalf("request %+v is outside the band's dataset", r)
		}
		if r.MinSupport < base || r.MinSupport >= base+w.band.width {
			t.Fatalf("threshold %d outside [%d, %d)", r.MinSupport, base, base+w.band.width)
		}
		if seen[r.MinSupport] {
			t.Fatalf("threshold %d repeats", r.MinSupport)
		}
		seen[r.MinSupport] = true
	}
	if got := len(w.sequence(1, rows, 10*w.band.width)); got != w.band.width {
		t.Errorf("band sequence has %d jobs, want it capped at the width %d", got, w.band.width)
	}
	for _, r := range w.warmup(rows) {
		if seen[r.MinSupport] || r.MinSupport < base+w.band.width {
			t.Errorf("warm-up threshold %d overlaps the timed band", r.MinSupport)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny job count, untraced and
// traced, and checks the result line against BENCHMARK.json and the
// trace's span nesting.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and mines; skipped with -short")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for trace, want := range map[int][]string{0: endToEnd, 1: perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				work := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := report(options{workload: w, seed: 3, duration: 200 * time.Millisecond,
					minJobs: 3, trace: trace == 1, work: work}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 3 {
					t.Fatalf("outcome %+v", out)
				}
				for _, name := range want {
					if _, ok := out.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(out.Metrics), len(want))
				}
				if trace == 1 {
					checkSpans(t, filepath.Join(work, fmt.Sprintf("trace-%s-seed3.json", w.name)))
				}
			})
		}
	}
}

// checkSpans requires every span to nest inside a parent of the same
// job.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ Spans []span }
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("no spans")
	}
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if !strings.HasPrefix(s.Job, "job-") || s.EndUS < s.StartUS {
			t.Fatalf("bad span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Job != s.Job || s.StartUS < p.StartUS || s.EndUS > p.EndUS {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
}

// TestDispenserPrefix has many callers race a zero-length deadline: the
// indices handed out must be exactly [0, minJobs), each once.
func TestDispenserPrefix(t *testing.T) {
	for _, tc := range []struct {
		n, minJobs int
		dur        time.Duration
		want       int
	}{
		{n: 1000, minJobs: 50, dur: 0, want: 50},
		{n: 40, minJobs: 5, dur: time.Hour, want: 40},
	} {
		d := &dispenser{n: tc.n, minJobs: tc.minJobs, start: time.Now(), dur: tc.dur}
		var mu sync.Mutex
		got := map[int]int{}
		var wg sync.WaitGroup
		for c := 0; c < 64; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i, ok := d.take()
					if !ok {
						return
					}
					mu.Lock()
					got[i]++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if d.next != tc.want || len(got) != tc.want {
			t.Fatalf("%+v: handed out %d indices (%d distinct), want %d", tc, d.next, len(got), tc.want)
		}
		for i := 0; i < tc.want; i++ {
			if got[i] != 1 {
				t.Fatalf("%+v: index %d handed out %d times", tc, i, got[i])
			}
		}
	}
}
