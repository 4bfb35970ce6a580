package main

import "testing"

func TestSentinelcheckUnit(t *testing.T) {
	cases := []golden{
		{
			name: "seeded violations caught",
			src: `package fake

import (
	"errors"
	"fmt"
	"strings"
)

var ErrGone = errors.New("gone")

func eq(err error) bool {
	return err == ErrGone
}

func wrapless(err error) error {
	return fmt.Errorf("op failed: %v", err)
}

func sniff(err error) bool {
	return strings.Contains(err.Error(), "gone")
}

func ok(err error) bool {
	return errors.Is(err, ErrGone)
}
`,
			want: []string{
				"internal/fake/errs.go:12:9: sentinelcheck: sentinel fake.ErrGone compared with ==; use errors.Is so wrapped errors still match",
				"internal/fake/errs.go:16:9: sentinelcheck: fmt.Errorf passes an error without %w; the sentinel is flattened to text and errors.Is stops matching",
				"internal/fake/errs.go:20:9: sentinelcheck: error detected by strings.Contains over err.Error(); match the typed sentinel with errors.Is",
			},
		},
		{
			// == on a sentinel is wrong even in tests, but %v-wrapping and
			// string matching are test-only conveniences.
			name: "test files keep the == rule but drop the wrap rules",
			file: "internal/fake/fake_test.go",
			src: `package fake

import (
	"errors"
	"fmt"
)

var ErrGone = errors.New("gone")

func eq(err error) bool {
	return err != ErrGone
}

func wrapless(err error) error {
	return fmt.Errorf("op failed: %v", err)
}
`,
			want: []string{
				"internal/fake/fake_test.go:11:9: sentinelcheck: sentinel fake.ErrGone compared with !=; use errors.Is so wrapped errors still match",
			},
		},
		{
			name: "ignore directive suppresses an intended identity check",
			src: `package fake

import "errors"

var ErrGone = errors.New("gone")

func eq(err error) bool {
	//h2vet:ignore sentinelcheck identity comparison against the unwrapped value is intended
	return err == ErrGone
}
`,
			want: nil,
		},
	}
	runGoldens(t, sentinelcheckAnalyzer, "internal/fake/errs.go", nil, cases)
}

// TestSentinelcheckWireTables: httpapi's wireErrors table must carry a row
// for every exported sentinel of fsapi and objstore. The server and the
// client both read that one table, so only a missing row can drift.
func TestSentinelcheckWireTables(t *testing.T) {
	cases := []struct {
		name    string
		fsapi   string
		httpapi string
		want    []string
	}{
		{
			name: "seeded table drift caught",
			fsapi: `package fsapi

import "errors"

var (
	ErrMissing = errors.New("missing")
	ErrStale   = errors.New("stale")
	errQuiet   = errors.New("unexported, so never on the wire")
)
`,
			httpapi: `package httpapi

import "github.com/h2cloud/h2cloud/internal/fsapi"

var wireErrors = []struct {
	err    error
	status int
	code   string
}{
	{fsapi.ErrMissing, 404, "missing"},
}
`,
			want: []string{
				"internal/fsapi/fsapi.go:7:2: sentinelcheck: sentinel fsapi.ErrStale has no row in httpapi wireErrors; it crosses the wire as a bare 500 and the client loses the type",
			},
		},
		{
			// objstore.ErrNotFound and fsapi.ErrNotFound both travel as
			// "not_found" in the real table: two rows may share a code.
			name: "alias collapse onto one code is clean",
			fsapi: `package fsapi

import "errors"

var (
	ErrMissing = errors.New("missing")
	ErrLost    = errors.New("lost")
)
`,
			httpapi: `package httpapi

import "github.com/h2cloud/h2cloud/internal/fsapi"

var wireErrors = []struct {
	err    error
	status int
	code   string
}{
	{fsapi.ErrMissing, 404, "missing"},
	{fsapi.ErrLost, 404, "missing"},
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkProgram(t, map[string]string{
				"internal/fsapi/fsapi.go": tc.fsapi,
				"internal/httpapi/api.go": tc.httpapi,
			}, sentinelcheckAnalyzer)
			expectDiags(t, got, tc.want)
		})
	}
}
