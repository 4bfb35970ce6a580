package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/h2fs"
)

// Client talks to an H2Cloud server. Account-scoped filesystem views
// implementing fsapi.FileSystem are obtained with FS.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8420"). httpClient defaults to http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimSuffix(base, "/"), hc: httpClient}
}

// decodeErr rebuilds a typed error from an error response body: the code
// becomes the sentinel of the first wireErrors row that carries it, so
// errors.Is works identically on both sides of the wire.
func decodeErr(resp *http.Response) error {
	var ae apiError
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, &ae); err != nil {
		return fmt.Errorf("httpapi: status %d: %s", resp.StatusCode, data)
	}
	for _, row := range wireErrors {
		if row.code == ae.Code {
			return fmt.Errorf("httpapi: %s: %w", ae.Error, row.err)
		}
	}
	return fmt.Errorf("httpapi: %s", ae.Error)
}

// do sends one request, with header, if given, as a name and a value; a
// reply of 400 or above comes back as decodeErr's typed error.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, header ...string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if len(header) == 2 {
		req.Header.Set(header[0], header[1])
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		return nil, decodeErr(resp)
	}
	return resp, nil
}

// doDiscard performs a request whose successful body is irrelevant.
func (c *Client) doDiscard(ctx context.Context, method, path string, body io.Reader, header ...string) error {
	resp, err := c.do(ctx, method, path, body, header...)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

// CreateAccount provisions an account.
func (c *Client) CreateAccount(ctx context.Context, account string) error {
	return c.doDiscard(ctx, http.MethodPut, "/v1/accounts/"+url.PathEscape(account), nil)
}

// DeleteAccount removes an account and its filesystem.
func (c *Client) DeleteAccount(ctx context.Context, account string) error {
	return c.doDiscard(ctx, http.MethodDelete, "/v1/accounts/"+url.PathEscape(account), nil)
}

// AccountExists probes an account. A reply other than 200 or 404 is an
// error; a HEAD reply has no body, so the error carries only the status.
func (c *Client) AccountExists(ctx context.Context, account string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.base+"/v1/accounts/"+url.PathEscape(account), nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("httpapi: account %q: status %d", account, resp.StatusCode)
}

// ReadRelative performs the quick O(1) namespace-decorated access (§3.2).
func (c *Client) ReadRelative(ctx context.Context, account, rel string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/rel/"+url.PathEscape(account)+"/"+escapePath(rel), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// ResolveNS asks the server for a directory's namespace UUID, the key to
// subsequent quick relative accesses.
func (c *Client) ResolveNS(ctx context.Context, account, path string) (string, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return "", err
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/ns/"+url.PathEscape(account)+escapePath(p), nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("httpapi: decode ns: %w", err)
	}
	return out["ns"], nil
}

// Usage fetches an account's filesystem footprint.
func (c *Client) Usage(ctx context.Context, account string) (h2fs.Usage, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/usage/"+url.PathEscape(account), nil)
	if err != nil {
		return h2fs.Usage{}, err
	}
	defer resp.Body.Close()
	var u h2fs.Usage
	if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
		return h2fs.Usage{}, fmt.Errorf("httpapi: decode usage: %w", err)
	}
	return u, nil
}

// Stats fetches the server's monitoring snapshot.
func (c *Client) Stats(ctx context.Context) (StatsPayload, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return StatsPayload{}, err
	}
	defer resp.Body.Close()
	var out StatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return StatsPayload{}, fmt.Errorf("httpapi: decode stats: %w", err)
	}
	return out, nil
}

// FS returns the account-scoped filesystem view.
func (c *Client) FS(account string) *ClientFS {
	return &ClientFS{c: c, account: account}
}

// ClientFS is an account view over the HTTP API; it implements
// fsapi.FileSystem, so anything that drives a local filesystem — the
// conformance suite included — can drive a remote H2Cloud.
type ClientFS struct {
	c       *Client
	account string
}

var _ fsapi.FileSystem = (*ClientFS)(nil)

// escapePath escapes each path segment but keeps separators.
func escapePath(p string) string {
	segs := strings.Split(p, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// route builds "/v1/<verb>/<account><path>". Paths are validated and
// canonicalized client-side: URL normalization would otherwise rewrite
// sequences like "//" or "/../" before the server could reject them.
func (f *ClientFS) route(verb, path string) (string, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return "", err
	}
	return "/v1/" + verb + "/" + url.PathEscape(f.account) + escapePath(p), nil
}

// Mkdir implements fsapi.FileSystem.
func (f *ClientFS) Mkdir(ctx context.Context, path string) error {
	r, err := f.route("mkdir", path)
	if err != nil {
		return err
	}
	return f.c.doDiscard(ctx, http.MethodPost, r, nil)
}

// Rmdir implements fsapi.FileSystem.
func (f *ClientFS) Rmdir(ctx context.Context, path string) error {
	r, err := f.route("rmdir", path)
	if err != nil {
		return err
	}
	return f.c.doDiscard(ctx, http.MethodPost, r, nil)
}

// Move implements fsapi.FileSystem.
func (f *ClientFS) Move(ctx context.Context, src, dst string) error {
	q := url.Values{"src": {src}, "dst": {dst}}
	return f.c.doDiscard(ctx, http.MethodPost,
		"/v1/move/"+url.PathEscape(f.account)+"?"+q.Encode(), nil)
}

// Copy implements fsapi.FileSystem.
func (f *ClientFS) Copy(ctx context.Context, src, dst string) error {
	q := url.Values{"src": {src}, "dst": {dst}}
	return f.c.doDiscard(ctx, http.MethodPost,
		"/v1/copy/"+url.PathEscape(f.account)+"?"+q.Encode(), nil)
}

// List implements fsapi.FileSystem.
func (f *ClientFS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	entries, _, err := f.ListPage(ctx, path, detail, "", 0)
	return entries, err
}

// ListPage lists with Swift-style pagination: at most limit entries
// strictly after marker, plus the next marker ("" when exhausted).
func (f *ClientFS) ListPage(ctx context.Context, path string, detail bool, marker string, limit int) ([]fsapi.EntryInfo, string, error) {
	r, err := f.route("list", path)
	if err != nil {
		return nil, "", err
	}
	// Built by hand rather than with url.Values: a plain listing's URL is
	// one concatenation.
	q := ""
	if detail {
		q = "&detail=1"
	}
	if limit > 0 {
		q += "&limit=" + strconv.Itoa(limit)
	}
	if marker != "" {
		q += "&marker=" + url.QueryEscape(marker)
	}
	if q != "" {
		r += "?" + q[1:]
	}
	resp, err := f.c.do(ctx, http.MethodGet, r, nil)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	var entries []Entry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		return nil, "", fmt.Errorf("httpapi: decode list: %w", err)
	}
	out := make([]fsapi.EntryInfo, len(entries))
	for i, e := range entries {
		out[i] = fsapi.EntryInfo(e)
	}
	next, err := url.PathUnescape(resp.Header.Get("X-Next-Marker"))
	if err != nil {
		return nil, "", fmt.Errorf("httpapi: bad next marker: %w", err)
	}
	return out, next, nil
}

// WriteFile implements fsapi.FileSystem.
func (f *ClientFS) WriteFile(ctx context.Context, path string, data []byte) error {
	r, err := f.route("fs", path)
	if err != nil {
		return err
	}
	return f.c.doDiscard(ctx, http.MethodPut, r, bytes.NewReader(data))
}

// ReadFile implements fsapi.FileSystem.
func (f *ClientFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	r, err := f.route("fs", path)
	if err != nil {
		return nil, err
	}
	resp, err := f.c.do(ctx, http.MethodGet, r, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// WriteFileChunked streams r into a chunked (large object) file: the
// server stores chunkSize-byte segment objects plus a manifest, so the
// upload never materializes in middleware memory and later ranged reads
// touch only the overlapped segments.
func (f *ClientFS) WriteFileChunked(ctx context.Context, path string, r io.Reader, chunkSize int) error {
	route, err := f.route("fs", path)
	if err != nil {
		return err
	}
	return f.c.doDiscard(ctx, http.MethodPut, route, r, "X-Chunk-Size", strconv.Itoa(chunkSize))
}

// ReadFileRange reads length bytes starting at offset (length < 0 means
// to the end) via an HTTP Range request. Like route's path checks, the
// cases a Range header cannot express are settled here, as the local
// middleware settles them: a negative offset is an invalid path, and an
// empty range — which has no "bytes=a-b" form — reads nothing from a file
// that exists and is not a directory.
func (f *ClientFS) ReadFileRange(ctx context.Context, path string, offset, length int64) ([]byte, error) {
	r, err := f.route("fs", path)
	if err != nil {
		return nil, err
	}
	if offset < 0 {
		return nil, fmt.Errorf("httpapi: negative offset: %w", fsapi.ErrInvalidPath)
	}
	if length == 0 {
		info, err := f.Stat(ctx, path)
		if err != nil {
			return nil, err
		}
		if info.IsDir {
			return nil, fmt.Errorf("httpapi: %s: %w", path, fsapi.ErrIsDir)
		}
		return []byte{}, nil
	}
	var rng string
	if length < 0 || length-1 > math.MaxInt64-offset {
		// Open-ended, or a last byte past the largest int64: read to the end.
		rng = fmt.Sprintf("bytes=%d-", offset)
	} else {
		rng = fmt.Sprintf("bytes=%d-%d", offset, offset+length-1)
	}
	resp, err := f.c.do(ctx, http.MethodGet, r, nil, "Range", rng)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Stat implements fsapi.FileSystem.
func (f *ClientFS) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	r, err := f.route("stat", path)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	resp, err := f.c.do(ctx, http.MethodGet, r, nil)
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	defer resp.Body.Close()
	var e Entry
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		return fsapi.EntryInfo{}, fmt.Errorf("httpapi: decode stat: %w", err)
	}
	return fsapi.EntryInfo(e), nil
}

// Remove implements fsapi.FileSystem.
func (f *ClientFS) Remove(ctx context.Context, path string) error {
	r, err := f.route("fs", path)
	if err != nil {
		return err
	}
	return f.c.doDiscard(ctx, http.MethodDelete, r, nil)
}
