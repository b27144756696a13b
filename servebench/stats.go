package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minAbove is how many samples must lie above a reported percentile.
const minAbove = 10

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0,100]); xs need not be sorted. It returns 0 for no samples, which
// only a run whose every job failed has.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p/100·n (99.9% of 10000 is
	// 9990.000000000002) from moving the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentiles are the candidates tailPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile is the highest of tailPercentiles that has at least
// minAbove of n samples above it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minAbove {
			return p
		}
	}
	return 0
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSample is the process-wide counters a timed phase differences.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
}

func sampleProc() (procSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSample{}, fmt.Errorf("getrusage: %w", err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), mallocs: m.Mallocs}, nil
}

// resetPeakRSS sets the process's high-water resident set (VmHWM) to
// its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
