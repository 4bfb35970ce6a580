package main

import (
	"hash/fnv"
	"math"
	"testing"
)

// Every account and every round-robin count routes to a server in range,
// on 32-bit builds too: "bob" and "frank" hash above MaxInt32, and the
// count passes MaxInt32 and wraps.
func TestRouteStaysInRange(t *testing.T) {
	for _, servers := range []int{1, 2, 3, 5} {
		for _, account := range []string{"alice", "bob", "carol", "dave", "frank"} {
			h := fnv.New32a()
			h.Write([]byte(account))
			want := int(h.Sum32() % uint32(servers))
			if got := route(account, 7, servers); got != want {
				t.Errorf("route(%q, servers=%d) = %d, want %d", account, servers, got, want)
			}
		}
		for _, count := range []uint64{0, 1, math.MaxInt32 + 1, math.MaxUint32, math.MaxUint64} {
			if got, want := route("", count, servers), int(count%uint64(servers)); got != want {
				t.Errorf("route(\"\", %d, servers=%d) = %d, want %d", count, servers, got, want)
			}
		}
	}
}
