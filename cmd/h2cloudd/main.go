// Command h2cloudd runs an H2Cloud deployment: an in-process object
// storage cloud, one or more H2Middlewares coordinating through gossip,
// and the web API (the paper's Figure 5 stack in one binary).
//
// Usage:
//
//	h2cloudd -addr :8420 -middlewares 2 -accounts alice,bob
//
// Each middleware flushes its dirty NameRings and the gossip bus delivers
// advertisements on the maintenance interval. Requests are spread across
// the middlewares round-robin, as a load balancer would.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"github.com/h2cloud/h2cloud"
	"github.com/h2cloud/h2cloud/internal/httpapi"
)

// accountOf extracts the account segment from the /v1/<verb>/<account>/...
// and /v1/accounts/<account> route shapes, or returns "".
func accountOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return ""
	}
	verb, rest, ok := strings.Cut(rest, "/")
	if !ok {
		return ""
	}
	if verb == "accounts" {
		account, _, _ := strings.Cut(rest, "/")
		return account
	}
	if verb == "stats" {
		return ""
	}
	account, _, _ := strings.Cut(rest, "/")
	return account
}

func main() {
	var (
		addr     = flag.String("addr", ":8420", "listen address")
		mwCount  = flag.Int("middlewares", 1, "number of H2Middlewares (proxy instances)")
		nodes    = flag.Int("nodes", 8, "storage nodes in the simulated cloud")
		replicas = flag.Int("replicas", 3, "object replicas")
		accounts = flag.String("accounts", "", "comma-separated accounts to create at startup")
		interval = flag.Duration("maintenance", 2*time.Second, "background merge + gossip interval")
		simCost  = flag.Bool("simcost", false, "charge the paper-calibrated virtual service times (for experiments)")
		dataDir  = flag.String("datadir", "", "persist storage nodes under this directory (empty = in-memory)")
		gcQueue  = flag.Bool("gcqueue", false, "durable async reclamation: RMDIR returns at ring-patch cost and the maintenance loop drains a crash-safe GC queue (replaces eager subtree walks)")
	)
	flag.Parse()

	profile := h2cloud.ZeroProfile()
	if *simCost {
		profile = h2cloud.SwiftProfile()
	}
	cloud, err := h2cloud.NewCluster(h2cloud.ClusterConfig{
		Nodes: *nodes, Replicas: *replicas, Profile: profile, DataDir: *dataDir,
	})
	if err != nil {
		log.Fatalf("h2cloudd: %v", err)
	}
	bus := h2cloud.NewGossipBus()
	if *mwCount < 1 {
		*mwCount = 1
	}
	mws := make([]*h2cloud.Middleware, *mwCount)
	for i := range mws {
		mw, err := h2cloud.NewMiddleware(h2cloud.Config{
			Store: cloud, Node: i + 1, Profile: profile, Gossip: bus,
			EagerGC: !*gcQueue, GCQueue: *gcQueue,
		})
		if err != nil {
			log.Fatalf("h2cloudd: middleware %d: %v", i+1, err)
		}
		mws[i] = mw
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, account := range strings.Split(*accounts, ",") {
		account = strings.TrimSpace(account)
		if account == "" {
			continue
		}
		if err := mws[0].CreateAccount(ctx, account); err != nil {
			if errors.Is(err, h2cloud.ErrExists) {
				log.Printf("account %q already present", account)
				continue
			}
			log.Fatalf("h2cloudd: create account %q: %v", account, err)
		}
		log.Printf("created account %q", account)
	}

	// Background Merger + gossip delivery (§4.5).
	go bus.Run(ctx, *interval)
	for _, mw := range mws {
		mw.StartMaintenance(ctx, *interval)
	}

	// Spread accounts across the middlewares with session affinity: the
	// NameRing maintenance protocol is asynchronous (§3.3.2), so a user's
	// requests stay on one middleware for read-your-writes while the
	// population load-balances by account. Requests without an account
	// (e.g. /v1/stats) round-robin.
	servers := make([]*httpapi.Server, len(mws))
	for i, mw := range mws {
		servers[i] = h2cloud.NewServer(mw)
	}
	var next atomic.Uint64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		servers[route(accountOf(r.URL.Path), next.Add(1), len(servers))].ServeHTTP(w, r)
	})

	srv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	log.Printf("h2cloudd: %d middleware(s) over %d storage nodes, serving on %s",
		len(mws), *nodes, *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("h2cloudd: %v", err)
	}
	fmt.Println("h2cloudd: bye")
}

// route picks the server for a request: by the account's FNV-1a hash, so
// a user's requests stay on one middleware, or by the round-robin count
// for requests without an account. The modulo is unsigned: on a 32-bit
// build int(hash) and int(count) can be negative.
func route(account string, count uint64, servers int) int {
	if account != "" {
		h := fnv.New32a()
		h.Write([]byte(account))
		count = uint64(h.Sum32())
	}
	return int(count % uint64(servers))
}
