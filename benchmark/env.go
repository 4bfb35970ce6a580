package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/gossip"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/httpapi"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// probes are the benchmark's interposers for one pass. The timed pass
// runs with none of them.
type probes struct {
	store *probeStore
	http  *httpProbe
	bus   *countingBus
}

// countingBus is the gossip.Broadcaster wrapper: it counts broadcasts and
// forwards them (and, through the embedded bus, handler registration).
type countingBus struct {
	*gossip.Bus
	n atomic.Int64
}

// Broadcast implements gossip.Broadcaster.
func (b *countingBus) Broadcast(from int, msg gossip.Message) {
	b.n.Add(1)
	b.Bus.Broadcast(from, msg)
}

// steppingClock advances one millisecond per reading from a fixed epoch,
// so UUIDs and tuple timestamps, and with them every stored byte, repeat
// exactly from run to run.
func steppingClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1_600_000_000, 0).UTC()
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

// env is one freshly built system under test: cloud, middleware and one
// filesystem view per client.
type env struct {
	cluster *cluster.Cluster
	mw      *h2fs.Middleware
	reg     *metrics.Registry
	fs      []fsapi.FileSystem
	stop    func()
}

// newEnv builds what cmd/h2cloudd builds by default — eager GC, a metrics
// registry (so the storemw metrics ring is on), one gossip bus — over the
// given cost profile and clock, with the workload's cache and sharding
// settings.
func newEnv(s *spec, profile cluster.CostProfile, clock func() time.Time, pr probes, traces []*clientTrace) (*env, error) {
	profile.DirShardThreshold = s.dirShardThreshold
	c, err := cluster.New(cluster.Config{Nodes: 8, Replicas: 3, Profile: profile, Clock: clock})
	if err != nil {
		return nil, err
	}
	e := &env{cluster: c, reg: metrics.NewRegistry(), stop: func() {}}
	var store objstore.Store = c
	if pr.store != nil {
		pr.store.inner = c
		store = pr.store
	}
	var bus gossip.Broadcaster = gossip.NewBus()
	if pr.bus != nil {
		bus = pr.bus
	}
	e.mw, err = h2fs.New(h2fs.Config{
		Store: store, Node: 1, Profile: profile, Clock: clock, Gossip: bus,
		EagerGC: true, Metrics: e.reg, DescCacheLimit: s.descCacheLimit,
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, t := range traces {
		if err := e.mw.CreateAccount(ctx, t.account); err != nil {
			return nil, err
		}
	}
	if !s.http {
		for _, t := range traces {
			e.fs = append(e.fs, e.mw.FS(t.account))
		}
		return e, nil
	}

	var handler http.Handler = httpapi.NewServer(e.mw)
	if pr.http != nil {
		handler = pr.http.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	var transports []*http.Transport
	for _, t := range traces {
		// One keep-alive connection per client.
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		transports = append(transports, tr)
		var rt http.RoundTripper = tr
		if pr.http != nil {
			rt = pr.http.transport(rt)
		}
		client := httpapi.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
		e.fs = append(e.fs, client.FS(t.account))
	}
	e.stop = func() {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
		_ = srv.Close()
		<-served
	}
	return e, nil
}

// apply issues one op and reports whether the reply was the expected one.
func apply(ctx context.Context, fs fsapi.FileSystem, op *Op) bool {
	switch op.Kind {
	case KStat:
		info, err := fs.Stat(ctx, op.Path)
		if err != nil {
			return false
		}
		if op.Want < 0 {
			return info.IsDir
		}
		return !info.IsDir && info.Size == op.Want
	case KRead:
		data, err := fs.ReadFile(ctx, op.Path)
		return err == nil && bytes.Equal(data, op.Data)
	case KWrite:
		return fs.WriteFile(ctx, op.Path, op.Data) == nil
	case KList, KListD:
		entries, err := fs.List(ctx, op.Path, op.Kind == KListD)
		return err == nil && int64(len(entries)) == op.Want
	case KMkdir:
		return fs.Mkdir(ctx, op.Path) == nil
	case KRmdir:
		return fs.Rmdir(ctx, op.Path) == nil
	case KMove:
		return fs.Move(ctx, op.Path, op.Dst) == nil
	case KRename:
		return fsapi.Rename(ctx, fs, op.Path, op.Dst) == nil
	case KCopy:
		return fs.Copy(ctx, op.Path, op.Dst) == nil
	case KRemove:
		return fs.Remove(ctx, op.Path) == nil
	}
	return false
}

// populate builds every account's initial tree through the facade, folds
// the resulting patch chains into their rings, and applies the workload's
// restart. With parallel set the accounts are populated concurrently,
// which the counted pass cannot afford: it needs one deterministic order
// of clock readings.
func (e *env) populate(s *spec, traces []*clientTrace, parallel bool) (failed int64) {
	ctx := context.Background()
	one := func(t *clientTrace) int64 {
		fs := e.mw.FS(t.account)
		var bad int64
		for i := range t.populate {
			if !apply(ctx, fs, &t.populate[i]) {
				bad++
			}
		}
		return bad
	}
	if parallel {
		var wg sync.WaitGroup
		var bad atomic.Int64
		for _, t := range traces {
			wg.Add(1)
			go func(t *clientTrace) {
				defer wg.Done()
				bad.Add(one(t))
			}(t)
		}
		wg.Wait()
		failed = bad.Load()
	} else {
		for _, t := range traces {
			failed += one(t)
		}
	}
	e.mw.MaintainOnce(ctx)
	if s.recoverAfterPopulate {
		// Eviction only runs on descriptor insert: without the restart the
		// cache limit would never bite and the workload would silently
		// equal its cached twin.
		e.mw.Recover()
	}
	return failed
}

// populateOps is the number of ops populate issues.
func populateOps(traces []*clientTrace) int64 {
	var n int64
	for _, t := range traces {
		n += int64(len(t.populate))
	}
	return n
}

func errorf(format string, args ...any) error { return fmt.Errorf("benchmark: "+format, args...) }
