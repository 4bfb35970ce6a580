package core

import "fmt"

// Patch is the unit of NameRing maintenance (§3.3.2 phase 1): "a log file
// recording the update information" submitted for every filesystem
// operation that changes a NameRing. A patch "is in the same format as a
// NameRing", so its body is simply a NameRing holding the changed tuples
// (insertions, overrides, or Deleted-tagged tombstones).
type Patch struct {
	Account string    // owning account
	NS      string    // namespace whose NameRing this patch updates
	Node    int       // middleware node that submitted the patch
	Seq     int       // incremental patch number on that node
	Ring    *NameRing // the update content
}

// Key returns the patch's object key (e.g.
// "alice|N97::/NameRing/.Node01.Patch000003").
func (p *Patch) Key() string {
	return PatchKey(p.Account, p.NS, p.Node, p.Seq)
}

// Encode stringifies the patch body; it shares the NameRing object format.
func (p *Patch) Encode() []byte {
	return EncodeNameRing(p.Ring)
}

// DecodePatch reconstructs a patch from its object key and body.
func DecodePatch(key string, data []byte) (*Patch, error) {
	k, ok := ParseKey(key)
	if !ok || k.Kind != KeyPatch {
		return nil, fmt.Errorf("core: %q is not a patch key", key)
	}
	ring, err := DecodeNameRing(data)
	if err != nil {
		return nil, fmt.Errorf("core: patch %q body: %w", key, err)
	}
	return &Patch{Account: k.Account, NS: k.NS, Node: k.Node, Seq: k.Seq, Ring: ring}, nil
}
