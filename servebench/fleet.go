package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gpapriori"
	"gpapriori/internal/peer"
	"gpapriori/internal/server"
)

// node is one in-process daemon: server.New behind a loopback
// http.Server, plus the benchmark's client for it.
type node struct {
	url      string
	srv      *server.Server
	http     *http.Server
	served   chan error
	stop     context.CancelFunc
	cl       *gpapriori.ServeClient
	stateDir string
}

// fleet is a workload's set of daemons and the owner of each dataset.
type fleet struct {
	nodes []*node
	// owner maps dataset → index of its (single) owning node; empty on
	// a single daemon.
	owner map[string]int
}

// registry holds a workload's datasets, loaded once per run and shared
// read-only by every daemon.
type registry struct {
	reg *server.Registry
	// rows is each dataset's transaction count.
	rows map[string]int
	// loadSeconds is the summed server.LoadDatasetSpec time.
	loadSeconds float64
}

func loadRegistry(w *workload) (*registry, error) {
	r := &registry{reg: server.NewRegistry(), rows: map[string]int{}}
	for _, spec := range w.datasets {
		t0 := time.Now()
		db, err := server.LoadDatasetSpec(spec)
		r.loadSeconds += time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", spec, err)
		}
		e, err := r.reg.Add(spec, spec, db)
		if err != nil {
			return nil, err
		}
		r.rows[spec] = e.Info.Transactions
	}
	return r, nil
}

// db returns the registered database of a dataset spec.
func (r *registry) db(spec string) *gpapriori.Database {
	e, _ := r.reg.Get(spec)
	return e.DB
}

// bootFleet starts w.nodes daemons over reg. Durable workloads get a
// fresh state directory per daemon under stateRoot.
func bootFleet(w *workload, reg *registry, hc *http.Client, stateRoot string) (*fleet, error) {
	f := &fleet{owner: map[string]int{}}
	lns := make([]net.Listener, w.nodes)
	urls := make([]string, w.nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{BaseURL: urls[i], HTTPClient: hc})
		if err != nil {
			closeListeners(lns[i:])
			f.close()
			return nil, err
		}
		n := &node{url: urls[i], cl: cl, served: make(chan error, 1)}
		cfg := server.Config{
			Registry:         reg.reg,
			Jobs:             gpapriori.JobManagerConfig{Workers: 1, MemoryBudgetMB: 4096},
			CacheBudgetBytes: w.cacheBytes,
		}
		if w.durable {
			if n.stateDir, err = os.MkdirTemp(stateRoot, "state-"); err != nil {
				closeListeners(lns[i:])
				f.close()
				return nil, err
			}
			cfg.StateDir = n.stateDir
		}
		if w.nodes > 1 {
			cfg.Cluster = peer.Config{Self: urls[i], Peers: urls, Replication: 1}
		}
		ctx, stop := context.WithCancel(context.Background())
		srv, err := server.NewContext(ctx, cfg)
		if err != nil {
			stop()
			os.RemoveAll(n.stateDir)
			closeListeners(lns[i:])
			f.close()
			return nil, err
		}
		n.srv, n.stop = srv, stop
		n.http = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func(ln net.Listener) { n.served <- n.http.Serve(ln) }(lns[i])
		f.nodes = append(f.nodes, n)
	}
	if w.nodes > 1 {
		if err := f.learnPlacement(); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// learnPlacement reads cluster.placement from /statsz. The owners
// follow the listeners' random ports, so they differ from run to run.
func (f *fleet) learnPlacement() error {
	st, err := f.nodes[0].cl.Stats(context.Background())
	if err != nil {
		return err
	}
	if st.Cluster == nil {
		return errors.New("daemon is not in cluster mode")
	}
	for ds, owners := range st.Cluster.Placement {
		if len(owners) != 1 {
			return fmt.Errorf("dataset %s has %d owners, want 1", ds, len(owners))
		}
		idx := -1
		for i, n := range f.nodes {
			if n.url == owners[0] {
				idx = i
			}
		}
		if idx < 0 {
			return fmt.Errorf("dataset %s owned by unknown peer %s", ds, owners[0])
		}
		f.owner[ds] = idx
	}
	return nil
}

// entry is the node a timed request is sent to: the only daemon, or a
// non-owner of the request's dataset in cluster mode.
func (f *fleet) entry(r gpapriori.ServeMineRequest) int {
	if len(f.nodes) == 1 {
		return 0
	}
	return (f.owner[r.Dataset] + 1) % len(f.nodes)
}

// ownerOf is the node that mines and caches r's dataset.
func (f *fleet) ownerOf(r gpapriori.ServeMineRequest) int {
	if len(f.nodes) == 1 {
		return 0
	}
	return f.owner[r.Dataset]
}

// stats reads /statsz from every node.
func (f *fleet) stats(ctx context.Context) ([]*gpapriori.ServeStats, error) {
	out := make([]*gpapriori.ServeStats, len(f.nodes))
	for i, n := range f.nodes {
		st, err := n.cl.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("statsz of %s: %w", n.url, err)
		}
		out[i] = st
	}
	return out, nil
}

// checkpointFiles counts the per-fingerprint checkpoint files across
// the fleet's state directories.
func (f *fleet) checkpointFiles() (int, error) {
	total := 0
	for _, n := range f.nodes {
		if n.stateDir == "" {
			continue
		}
		m, err := filepath.Glob(filepath.Join(n.stateDir, "ckpt-*.ckpt"))
		if err != nil {
			return 0, err
		}
		total += len(m)
	}
	return total, nil
}

// close drains every daemon, stops its listener and prober, waits for
// the serving goroutines, and removes the state directories.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, n := range f.nodes {
		if err := n.srv.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("drain %s: %w", n.url, err))
		}
	}
	for _, n := range f.nodes {
		if err := n.http.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown %s: %w", n.url, err))
		}
		if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		n.stop()
		if n.stateDir != "" {
			if err := os.RemoveAll(n.stateDir); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
