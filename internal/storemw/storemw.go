// Package storemw turns the wrappers around the object storage cloud
// into a composable middleware stack.
//
// Before this package, each behaviour bolted onto the store lived in a
// different place: the retry loop was private to h2fs, fault injection
// was special-cased in internal/chaos, and metrics were sprinkled through
// the middleware. Every one of them is really the same shape — an
// objstore.Store wrapping another objstore.Store — so they are expressed
// here as uniform Layers assembled with Stack. Each ring forwards both
// the singular primitives and the batch API (objstore.Batcher), applying
// its own behaviour per item without re-charging the inner store's
// virtual cost.
package storemw

import "github.com/h2cloud/h2cloud/internal/objstore"

// Layer wraps a Store with one ring of behaviour.
type Layer func(objstore.Store) objstore.Store

// Stack applies layers to base in order: the first layer becomes the
// innermost ring (closest to the cloud), the last the outermost. Nil
// layers are skipped.
func Stack(base objstore.Store, layers ...Layer) objstore.Store {
	s := base
	for _, l := range layers {
		if l != nil {
			s = l(s)
		}
	}
	return s
}

// Wrapper is the common contract of every middleware ring: a Store that
// exposes the Store it wraps.
type Wrapper interface {
	objstore.Store
	Unwrap() objstore.Store
}
