package main

import "testing"

func TestDroppederr(t *testing.T) {
	cases := []golden{
		{
			name: "objstore put and get drops caught",
			src: `package demo

import (
	"time"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

func drop(n *objstore.Node) {
	n.Put("x", nil, nil, time.Unix(0, 0))
	data, _, _ := n.Get("x")
	_ = data
	s, _ := n.Load("x")
	n.PutSealed(s)
}
`,
			want: []string{
				"internal/demo/src.go:10:2: droppederr: result of objstore Put is discarded; check the error",
				"internal/demo/src.go:11:11: droppederr: error result of objstore Get is assigned to _; check the error",
				"internal/demo/src.go:13:5: droppederr: error result of objstore Load is assigned to _; check the error",
				"internal/demo/src.go:14:2: droppederr: result of objstore PutSealed is discarded; check the error",
			},
		},
		{
			name: "core decode drop caught",
			src: `package demo

import "github.com/h2cloud/h2cloud/internal/core"

func drop(data []byte) *core.NameRing {
	r, _ := core.DecodeNameRing(data)
	return r
}
`,
			want: []string{
				"internal/demo/src.go:6:5: droppederr: error result of core.DecodeNameRing is assigned to _; check the error",
			},
		},
		{
			name: "checked errors and errorless calls allowed",
			src: `package demo

import (
	"time"

	"github.com/h2cloud/h2cloud/internal/core"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

func ok(n *objstore.Node, r *core.NameRing) ([]byte, error) {
	if err := n.Put("x", nil, nil, time.Unix(0, 0)); err != nil {
		return nil, err
	}
	return core.EncodeNameRing(r), nil
}
`,
			want: nil,
		},
		{
			name: "same-name methods elsewhere exempt",
			src: `package demo

import (
	"context"

	"github.com/h2cloud/h2cloud/internal/pathdb"
)

func ok(db *pathdb.DB) {
	db.Delete(context.Background(), "/tmp")
}
`,
			want: nil,
		},
		{
			name: "ignore directive suppresses",
			src: `package demo

import (
	"time"

	"github.com/h2cloud/h2cloud/internal/objstore"
)

func drop(n *objstore.Node) {
	//h2vet:ignore droppederr best-effort write, failure tolerated
	n.Put("x", nil, nil, time.Unix(0, 0))
}
`,
			want: nil,
		},
	}
	runGoldens(t, droppederrAnalyzer, "internal/demo/src.go", nil, cases)
}
