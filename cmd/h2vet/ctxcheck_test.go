package main

import "testing"

// miniObjstoreCtx mirrors the real Store's context-first signatures.
const miniObjstoreCtx = `package objstore

import "context"

type Store interface {
	Put(ctx context.Context, name string, data []byte) error
	Get(ctx context.Context, name string) ([]byte, error)
}
`

func TestCtxcheck(t *testing.T) {
	cases := []golden{
		{
			// Deriving from the caller's parameter — directly or through
			// WithTimeout — is the contract.
			name: "derived from parameter clean",
			src: `package fake

import (
	"context"
	"time"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

func Fetch(ctx context.Context, s objstore.Store) error {
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	_, err := s.Get(tctx, "a")
	return err
}
`,
			want: nil,
		},
		{
			name: "background root flagged",
			src: `package fake

import "context"

func Root() context.Context {
	return context.Background()
}
`,
			want: []string{
				"internal/fake/impl.go:6:9: ctxcheck: context.Background() in internal/ severs cancellation from the caller; accept a ctx parameter and derive from it (drivers own the root; //h2vet:ignore ctxcheck <reason> for deliberate harness roots)",
			},
		},
		{
			name: "todo root flagged",
			src: `package fake

import "context"

func Root() context.Context {
	return context.TODO()
}
`,
			want: []string{
				"internal/fake/impl.go:6:9: ctxcheck: context.TODO() in internal/ severs cancellation from the caller; accept a ctx parameter and derive from it (drivers own the root; //h2vet:ignore ctxcheck <reason> for deliberate harness roots)",
			},
		},
		{
			name: "undeclared WithoutCancel flagged, durable clean",
			src: `package fake

import "context"

func Detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

func DurableBracket(ctx context.Context) context.Context {
	//h2vet:durable GC drain must finish once the tombstone landed
	return context.WithoutCancel(ctx)
}
`,
			want: []string{
				"internal/fake/impl.go:6:9: ctxcheck: context.WithoutCancel detaches this work from the caller's cancellation; declare the durable bracket with //h2vet:durable <reason> (GC drain and scrub brackets are the intended uses) or propagate ctx unchanged",
			},
		},
		{
			name: "nil context at I/O call flagged",
			src: `package fake

import "github.com/h2cloud/h2cloud/internal/objstore"

func Fetch(s objstore.Store) error {
	_, err := s.Get(nil, "a")
	return err
}
`,
			want: []string{
				"internal/fake/impl.go:6:12: ctxcheck: objstore Get call receives a nil context; pass the caller's ctx so cancellation reaches the I/O layer",
			},
		},
		{
			name: "package-level context at I/O call flagged",
			src: `package fake

import (
	"context"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

var bgCtx context.Context

func Fetch(s objstore.Store) error {
	_, err := s.Get(bgCtx, "a")
	return err
}
`,
			want: []string{
				"internal/fake/impl.go:12:12: ctxcheck: objstore Get call receives a package-level context; thread the caller's ctx parameter instead so cancellation propagates per request",
			},
		},
		{
			// Test files are scaffolding: roots there are the norm.
			name: "test files exempt",
			file: "internal/fake/impl_test.go",
			src: `package fake

import "context"

func helper() context.Context {
	return context.Background()
}
`,
			want: nil,
		},
		{
			name: "ignore directive on harness root",
			src: `package fake

import "context"

//h2vet:ignore ctxcheck bench harness owns its root context
func Root() context.Context { return context.Background() }
`,
			want: nil,
		},
	}
	runGoldens(t, ctxcheckAnalyzer, "internal/fake/impl.go", map[string]string{"internal/objstore/objstore.go": miniObjstoreCtx}, cases)
}
