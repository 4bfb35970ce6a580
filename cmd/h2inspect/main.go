// Command h2inspect examines the objects of a persistent H2Cloud data
// directory offline — the operator's view of what "the whole filesystem
// in an object storage cloud" physically looks like: file objects,
// directory objects, NameRings and patches, all as flat objects.
//
// Usage:
//
//	h2inspect -datadir DIR objects            list every object with its decoded type
//	h2inspect -datadir DIR account ACCOUNT    show the account's root namespace
//	h2inspect -datadir DIR ring ACCOUNT NS    decode a NameRing object
//	h2inspect -datadir DIR tree ACCOUNT       walk and print the directory tree
//	h2inspect -datadir DIR fsck [reclaim]     cross-check every object against the
//	                                          live tree and the GC queue; report
//	                                          (and with "reclaim", delete) orphans
//
// fsck reads a point-in-time view of the data directory: run it against
// a quiescent store (no middleware serving writes). Check mode is
// always safe; "reclaim" additionally re-verifies each orphan against
// the ring state before deleting, but only quiescence guarantees that
// an in-flight create is never misread as an orphan.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

func main() {
	dataDir := flag.String("datadir", "", "cluster data directory (required)")
	nodes := flag.Int("nodes", 8, "storage node count the cluster was built with")
	replicas := flag.Int("replicas", 3, "replica count the cluster was built with")
	flag.Parse()
	if *dataDir == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: h2inspect -datadir DIR <objects|account|ring|tree> [args]")
		os.Exit(2)
	}
	c, err := cluster.New(cluster.Config{
		DataDir: *dataDir, Nodes: *nodes, Replicas: *replicas,
		Profile: cluster.ZeroProfile(),
	})
	if err != nil {
		fail(err)
	}
	switch cmd := flag.Arg(0); cmd {
	case "objects":
		listObjects(c)
	case "account":
		needArgs(2)
		showAccount(c, flag.Arg(1))
	case "ring":
		needArgs(3)
		showRing(c, flag.Arg(1), flag.Arg(2))
	case "tree":
		needArgs(2)
		showTree(c, flag.Arg(1))
	case "fsck":
		runFsck(c, flag.NArg() > 1 && flag.Arg(1) == "reclaim")
	default:
		fail(fmt.Errorf("unknown command %q", cmd))
	}
}

func needArgs(n int) {
	if flag.NArg() < n {
		fmt.Fprintln(os.Stderr, "h2inspect: missing arguments")
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "h2inspect:", err)
	os.Exit(1)
}

// classify names the object kind from its key and content.
func classify(key string, info objstore.ObjectInfo, data []byte) string {
	k, _ := core.ParseKey(key)
	switch k.Kind {
	case core.KeyRoot:
		return "account-root -> ns " + string(data)
	case core.KeyGCIndex:
		return "gc-queue index"
	case core.KeyGCEntry:
		e, err := core.DecodeGCEntry(data)
		if err != nil {
			return "gc-queue entry (corrupt)"
		}
		return "gc-queue entry -> ns " + e.NS
	case core.KeyPatch:
		return "patch"
	case core.KeyExtent:
		r, err := core.DecodeNameRing(data)
		if err != nil {
			return "NameRing extent (corrupt)"
		}
		return fmt.Sprintf("NameRing extent %d/%d (%d tuples)", k.Shard, k.Shards, r.TotalLen())
	case core.KeyRing:
		lay, err := core.DecodeLayout(data)
		if err != nil {
			return "shard manifest (corrupt)"
		}
		if lay.Shards > 1 {
			return fmt.Sprintf("shard manifest (%d extents, gen %d)", lay.Shards, lay.Gen)
		}
		return "NameRing"
	}
	switch {
	case core.IsDirObject(data):
		d, err := core.DecodeDir(data)
		if err != nil {
			return "directory (corrupt)"
		}
		return "directory -> ns " + d.NS
	case info.Meta[core.MetaType] == core.TypeFile || !strings.Contains(key, "|"):
		return fmt.Sprintf("file (%d bytes)", info.Size)
	default:
		return fmt.Sprintf("object (%d bytes)", info.Size)
	}
}

func listObjects(c *cluster.Cluster) {
	ctx := bg()
	for _, name := range c.Names() {
		data, info, err := c.Get(ctx, name)
		if err != nil {
			fmt.Printf("%-60s UNREADABLE: %v\n", name, err)
			continue
		}
		fmt.Printf("%-60s %s\n", name, classify(name, info, data))
	}
}

func showAccount(c *cluster.Cluster, account string) {
	data, _, err := c.Get(bg(), core.RootKey(account))
	if err != nil {
		fail(fmt.Errorf("account %q: %w", account, err))
	}
	fmt.Printf("account: %s\nroot namespace: %s\n", account, data)
}

func showRing(c *cluster.Cluster, account, ns string) {
	rr, err := h2fs.ReadRing(bg(), c, account, ns)
	if err != nil {
		fail(err)
	}
	ring := rr.Ring
	fmt.Printf("NameRing %s::%s  (%d tuples, %d live, %d extents)\n",
		account, ns, ring.TotalLen(), ring.Len(), rr.Layout.Shards)
	for _, w := range core.ParseWatermarks(nil, rr.Head.Meta) {
		fmt.Printf("  merge watermark %d = %d\n", w.Node, w.Seq)
	}
	for _, t := range ring.All() {
		flags := ""
		if t.Dir {
			flags += " dir"
		}
		if t.Deleted {
			flags += " DELETED"
		}
		ns := ""
		if t.NS != "" {
			ns = " ns=" + t.NS
		}
		fmt.Printf("  %-30q t=%d%s%s\n", t.Name, t.Time, flags, ns)
	}
}

func showTree(c *cluster.Cluster, account string) {
	rootData, _, err := c.Get(bg(), core.RootKey(account))
	if err != nil {
		fail(fmt.Errorf("account %q: %w", account, err))
	}
	var walk func(ns, indent string)
	walk = func(ns, indent string) {
		rr, err := h2fs.ReadRing(bg(), c, account, ns)
		if err != nil {
			fmt.Printf("%s!! ring %s unreadable: %v\n", indent, ns, err)
			return
		}
		for _, t := range rr.Ring.Live() {
			if t.Dir {
				fmt.Printf("%s%s/\n", indent, t.Name)
				walk(t.NS, indent+"  ")
			} else {
				fmt.Printf("%s%s\n", indent, t.Name)
			}
		}
	}
	fmt.Printf("%s:/\n", account)
	walk(string(rootData), "  ")
}

// fsck cross-checks every stored object against live reachability and
// pending GC intents through the middleware's scrubber. It assumes a
// quiescent data directory — reclaim mode deletes what the point-in-time
// view proves unreachable, and h2inspect runs offline by construction.
func fsck(c *cluster.Cluster, reclaim bool) (h2fs.ScrubReport, error) {
	mw, err := h2fs.New(h2fs.Config{Store: c, Node: 0})
	if err != nil {
		return h2fs.ScrubReport{}, err
	}
	return mw.Scrub(bg(), c.Names(), reclaim)
}

func runFsck(c *cluster.Cluster, reclaim bool) {
	rep, err := fsck(c, reclaim)
	if err != nil {
		fail(err)
	}
	fmt.Printf("objects: %d\nlive: %d\nqueued: %d\ninfra: %d\norphans: %d\n",
		rep.Objects, rep.Live, rep.Queued, rep.Infra, len(rep.Orphans))
	for _, o := range rep.Orphans {
		fmt.Printf("  orphan %s\n", o)
	}
	if reclaim {
		fmt.Printf("reclaimed: %d\n", rep.Reclaimed)
	} else if len(rep.Orphans) > 0 {
		os.Exit(1) // check-only mode: orphans are a finding
	}
}

func bg() context.Context { return context.Background() }
