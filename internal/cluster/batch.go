package cluster

import (
	"context"
	"time"

	"github.com/h2cloud/h2cloud/internal/objstore"
	"github.com/h2cloud/h2cloud/internal/vclock"
)

// Native batch execution (objstore.Batcher). A middleware that issues a
// group of independent primitives does not pay for them one round trip
// at a time: the cloud absorbs the group concurrently, bounded by the
// profile's Fanout width. Each item executes against the in-memory nodes
// through the same uncharged cores the singular primitives use — so
// counters, read-repair and quorum behaviour are identical — and the
// whole group is charged as ONE overlapped window: the LPT makespan of
// the per-item service times over Fanout workers. With Fanout <= 1 the
// makespan degenerates to the per-item sum, i.e. exactly what issuing
// the singular primitives sequentially would have charged.

var _ objstore.Batcher = (*Cluster)(nil)

// batchWorkers is the overlapped window width for batched primitives.
func (c *Cluster) batchWorkers() int {
	if c.profile.Fanout > 1 {
		return c.profile.Fanout
	}
	return 1
}

// MultiGet implements objstore.Batcher.
func (c *Cluster) MultiGet(ctx context.Context, names []string) []objstore.GetResult {
	out := make([]objstore.GetResult, len(names))
	durs := make([]time.Duration, len(names))
	for i, name := range names {
		out[i].Data, out[i].Info, durs[i], out[i].Err = c.getCore(name)
	}
	vclock.Charge(ctx, vclock.Makespan(durs, c.batchWorkers()))
	return out
}

// MultiHead implements objstore.Batcher.
func (c *Cluster) MultiHead(ctx context.Context, names []string) []objstore.HeadResult {
	out := make([]objstore.HeadResult, len(names))
	durs := make([]time.Duration, len(names))
	for i, name := range names {
		out[i].Info, durs[i], out[i].Err = c.headCore(name)
	}
	vclock.Charge(ctx, vclock.Makespan(durs, c.batchWorkers()))
	return out
}

// MultiPut implements objstore.Batcher; each slot's ETag is the one its
// put sealed, and its IfMatch is checked as putCore checks it. A batch of
// up to fanoutBuf slots keeps its durations on the stack, and one whose
// every slot landed returns a shared slice of nils — read it, never write
// it — so a one-slot conditional put allocates what a Put does.
func (c *Cluster) MultiPut(ctx context.Context, reqs []objstore.PutReq) []error {
	var out []error
	var durBuf [fanoutBuf]time.Duration
	durs := durBuf[:0]
	for i, r := range reqs {
		d, etag, err := c.putCore(r.Name, r.Data, r.Meta, r.IfMatch)
		durs, reqs[i].ETag = append(durs, d), etag
		if err != nil {
			if out == nil {
				out = make([]error, len(reqs))
			}
			out[i] = err
		}
	}
	vclock.Charge(ctx, vclock.Makespan(durs, c.batchWorkers()))
	switch {
	case out != nil:
		return out
	case len(reqs) <= len(landed):
		return landed[:len(reqs):len(reqs)]
	}
	return make([]error, len(reqs))
}

// landed is the result of a MultiPut whose every slot succeeded.
var landed [fanoutBuf]error

// MultiDelete implements objstore.Batcher.
func (c *Cluster) MultiDelete(ctx context.Context, names []string) []error {
	out := make([]error, len(names))
	durs := make([]time.Duration, len(names))
	for i, name := range names {
		durs[i], out[i] = c.deleteCore(name)
	}
	vclock.Charge(ctx, vclock.Makespan(durs, c.batchWorkers()))
	return out
}
