// Failover: storage nodes die and come back while the filesystem keeps
// working — the reliability story that motivates putting the directory
// hierarchy inside the object cloud in the first place (paper §1: index
// clouds are where metadata gets lost; object clouds already know how to
// replicate and repair).
//
// The demo writes through failures of replica nodes, shows reads falling
// through to surviving replicas and writes diverting to handoff nodes,
// then heals the cluster with an anti-entropy repair pass.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/h2cloud/h2cloud"
)

func main() {
	ctx := context.Background()
	cloud := h2cloud.NewSwiftLikeCluster()
	mw, err := h2cloud.NewMiddleware(h2cloud.Config{Store: cloud, Node: 1})
	if err != nil {
		log.Fatal(err)
	}
	must(mw.CreateAccount(ctx, "alice"))
	fs := mw.FS("alice")
	must(fs.Mkdir(ctx, "/docs"))
	must(fs.WriteFile(ctx, "/docs/precious.txt", []byte("written before the outage")))
	must(mw.FlushAll(ctx))

	fmt.Println("healthy cluster: 8 nodes, 3 replicas per object")

	// Kill two nodes. Some objects now have only one live primary; new
	// writes to affected partitions divert to handoff nodes.
	cloud.SetNodeDown(0, true)
	cloud.SetNodeDown(1, true)
	fmt.Println("nodes 0 and 1 are down")

	data, err := fs.ReadFile(ctx, "/docs/precious.txt")
	must(err)
	fmt.Printf("read during outage: %q (served by a surviving replica)\n", data)

	must(fs.WriteFile(ctx, "/docs/during-outage.txt", []byte("still accepting writes")))
	must(fs.Mkdir(ctx, "/docs/new-dir"))
	entries, err := fs.List(ctx, "/docs", false)
	must(err)
	fmt.Printf("directory operations during outage: LIST sees %d entries\n", len(entries))

	// Nodes return; one anti-entropy pass restores full replication and
	// reclaims the diverted handoff copies.
	cloud.SetNodeDown(0, false)
	cloud.SetNodeDown(1, false)
	repaired := cloud.Repair(ctx, 1)
	fmt.Printf("nodes recovered; repair wrote/reclaimed %d replica copies\n", repaired)

	data, err = fs.ReadFile(ctx, "/docs/during-outage.txt")
	must(err)
	fmt.Printf("post-repair read: %q\n", data)

	// Every object is back to full replication.
	must(mw.FlushAll(ctx))
	if n := cloud.Repair(ctx, 1); n != 0 {
		log.Fatalf("cluster not converged: second repair did %d writes", n)
	}
	fmt.Println("second repair pass found nothing to do — cluster fully healed ✔")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
