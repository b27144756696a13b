package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStressCountersBalance hammers one Manager from many goroutines —
// concurrent submits, cancels, sheds, failures, and deadline expiries —
// and asserts the documented accounting identity afterwards:
//
//	Submitted == Done + Failed + Shed + Canceled
//
// and that every reserved byte was returned. Run under -race (the
// verify script does) this doubles as the data-race proof for the
// manager's locking.
func TestStressCountersBalance(t *testing.T) {
	m := newTestManager(t, Options{
		QueueLimit:        8,
		MemoryBudgetBytes: 1000,
		Workers:           4,
	})

	const (
		submitters    = 8
		jobsPerWorker = 40
	)
	var (
		mu       sync.Mutex
		accepted []*Job
		rejected int
	)

	// The random load below reaches the Failed and Canceled paths only
	// when enough of it is admitted, which a busy scheduler does not
	// promise. Two jobs admitted into the idle manager first make both
	// paths certain: one fails, one blocks until it is canceled.
	failer := &Job{Name: "stress-fail", MemBytes: 50, Run: func(context.Context) error {
		return errors.New("synthetic failure")
	}}
	started := make(chan struct{})
	blocker := &Job{Name: "stress-block", MemBytes: 50, Run: func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}}
	for _, j := range []*Job{failer, blocker} {
		if err := m.Submit(j); err != nil {
			t.Fatalf("submit %s to an idle manager: %v", j.Name, err)
		}
		accepted = append(accepted, j)
	}
	<-failer.Done()
	<-started

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobsPerWorker; i++ {
				n := g*jobsPerWorker + i
				j := &Job{
					Name:     fmt.Sprintf("stress-%d", n),
					Priority: n % 5,
					MemBytes: int64(50 + (n%7)*30),
					Run: func(ctx context.Context) error {
						if n%9 == 0 {
							return errors.New("synthetic failure")
						}
						select {
						case <-ctx.Done():
							return ctx.Err()
						case <-time.After(time.Duration(n%4) * time.Millisecond):
							return nil
						}
					},
				}
				if n%11 == 0 {
					// A deadline so short some of these expire mid-run.
					j.Deadline = time.Microsecond
				}
				err := m.Submit(j)
				mu.Lock()
				if err != nil {
					// Queue-full and shed-refusal rejections are the
					// expected overflow behaviour under this load; they
					// must not leak into Submitted.
					rejected++
				} else {
					accepted = append(accepted, j)
				}
				mu.Unlock()
			}
		}(g)
	}

	// Cancel a slice of whatever has been accepted so far, racing the
	// scheduler: some victims are still queued, some running, some
	// already terminal.
	var cancelWG sync.WaitGroup
	cancelWG.Add(1)
	go func() {
		defer cancelWG.Done()
		for round := 0; round < 50; round++ {
			mu.Lock()
			snapshot := append([]*Job(nil), accepted...)
			mu.Unlock()
			for i, j := range snapshot {
				if i%3 == 0 {
					m.Cancel(j)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	cancelWG.Wait()
	m.Cancel(blocker)
	for _, j := range accepted {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s (state %v) never reached a terminal state", j.Name, j.State())
		}
	}

	c := m.Counters()
	if got := int(c.Submitted); got != len(accepted) {
		t.Errorf("Submitted = %d, want %d accepted (plus %d rejected, excluded)",
			got, len(accepted), rejected)
	}
	if c.Submitted != c.Done+c.Failed+c.Shed+c.Canceled {
		t.Errorf("counters do not balance: %+v (Done+Failed+Shed+Canceled = %d)",
			c, c.Done+c.Failed+c.Shed+c.Canceled)
	}
	if c.Admitted < c.Done+c.Failed {
		t.Errorf("Admitted %d < Done+Failed %d: a job ran without admission",
			c.Admitted, c.Done+c.Failed)
	}
	if n := m.QueueLen(); n != 0 {
		t.Errorf("queue not empty after drain: %d", n)
	}
	if b := m.InFlightBytes(); b != 0 {
		t.Errorf("reserved memory leaked: %d bytes still in flight", b)
	}
	// The load is designed to exercise every terminal path; if one never
	// fires the test has silently stopped covering it.
	if c.Done == 0 || c.Failed == 0 || c.Canceled == 0 {
		t.Errorf("terminal-path coverage collapsed: %+v", c)
	}
}
