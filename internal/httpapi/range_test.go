package httpapi

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/h2cloud/h2cloud/internal/fsapi"
)

func TestRangedReadsOverHTTP(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	fs := client.FS("alice")
	mustOK(t, fs.WriteFile(ctx, "/video.bin", []byte("0123456789abcdef")))

	cases := []struct {
		offset, length int64
		want           string
	}{
		{0, 4, "0123"},
		{4, 4, "4567"},
		{10, -1, "abcdef"},
		{10, 100, "abcdef"}, // length past end clamps
		{100, 4, ""},        // offset past end is empty
	}
	for _, c := range cases {
		got, err := fs.ReadFileRange(ctx, "/video.bin", c.offset, c.length)
		mustOK(t, err)
		if string(got) != c.want {
			t.Fatalf("range(%d,%d) = %q, want %q", c.offset, c.length, got, c.want)
		}
	}
}

// TestReadFileRangeMatchesLocal: the client returns what the middleware
// returns locally — the same bytes, or an error matching the same fsapi
// sentinel — including for the ranges a Range header cannot express.
func TestReadFileRangeMatchesLocal(t *testing.T) {
	client, mw := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	fs := client.FS("alice")
	mustOK(t, fs.WriteFile(ctx, "/v.bin", []byte("0123456789")))
	mustOK(t, fs.WriteFileChunked(ctx, "/c.bin", strings.NewReader("0123456789"), 4))
	mustOK(t, fs.Mkdir(ctx, "/d"))

	sentinels := []error{fsapi.ErrNotFound, fsapi.ErrIsDir, fsapi.ErrInvalidPath}
	kind := func(err error) error {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return s
			}
		}
		return err
	}
	cases := []struct {
		path           string
		offset, length int64
		want           string
		wantErr        error
	}{
		{"/v.bin", 0, 0, "", nil},
		{"/v.bin", 4, 0, "", nil},
		{"/v.bin", -1, 2, "", fsapi.ErrInvalidPath},
		{"/v.bin", 20, 4, "", nil}, // past the end
		{"/v.bin", 8, -1, "89", nil},
		{"/v.bin", 8, math.MaxInt64, "89", nil}, // offset+length overflows
		{"/c.bin", 8, math.MaxInt64, "89", nil},
		{"/missing", 0, 2, "", fsapi.ErrNotFound},
		{"/missing", 0, 0, "", fsapi.ErrNotFound},
		{"/d", 0, 2, "", fsapi.ErrIsDir},
		{"/d", 0, 0, "", fsapi.ErrIsDir},
	}
	for _, c := range cases {
		local, lerr := mw.ReadFileRange(ctx, "alice", c.path, c.offset, c.length)
		remote, rerr := fs.ReadFileRange(ctx, c.path, c.offset, c.length)
		for _, got := range []struct {
			side string
			data []byte
			err  error
		}{{"local", local, lerr}, {"http", remote, rerr}} {
			if kind(got.err) != c.wantErr || string(got.data) != c.want {
				t.Errorf("%s ReadFileRange(%s, %d, %d) = (%q, %v), want (%q, %v)",
					got.side, c.path, c.offset, c.length, got.data, got.err, c.want, c.wantErr)
			}
		}
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in             string
		offset, length int64
		ok             bool
	}{
		{"bytes=0-3", 0, 4, true},
		{"bytes=10-", 10, -1, true},
		{"bytes=5-5", 5, 1, true},
		{"bytes=-5", 0, 0, false},      // suffix ranges unsupported
		{"bytes=3-1", 0, 0, false},     // inverted
		{"bytes=0-1,4-5", 0, 0, false}, // multi-range unsupported
		{"items=0-1", 0, 0, false},
		{"bytes=x-1", 0, 0, false},
		{"bytes=1-x", 0, 0, false},
	}
	for _, c := range cases {
		off, l, ok := parseRange(c.in)
		if ok != c.ok || (ok && (off != c.offset || l != c.length)) {
			t.Errorf("parseRange(%q) = (%d, %d, %v), want (%d, %d, %v)",
				c.in, off, l, ok, c.offset, c.length, c.ok)
		}
	}
}

func TestBadRangeHeaderStatus(t *testing.T) {
	client, _ := newStack(t)
	ctx := context.Background()
	mustOK(t, client.CreateAccount(ctx, "alice"))
	mustOK(t, client.FS("alice").WriteFile(ctx, "/f", []byte("x")))
	status, err := clientRawRangeRequest(client, "/v1/fs/alice/f", "bytes=bogus")
	if status != 416 {
		t.Fatalf("bad range status = %d, want 416", status)
	}
	if !errors.Is(err, fsapi.ErrInvalidPath) {
		t.Fatalf("bad range error = %v, want one wrapping fsapi.ErrInvalidPath", err)
	}
}

// clientRawRangeRequest issues a GET with a raw Range header and returns
// the status code and, for an error status, the error the client decodes
// from the body.
func clientRawRangeRequest(c *Client, path, rng string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Range", rng)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return resp.StatusCode, decodeErr(resp)
	}
	return resp.StatusCode, nil
}
