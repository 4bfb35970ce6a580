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

// do sends one request to target, with header, if given, as a name and a
// value. A reply of 400 or above comes back as decodeErr's typed error,
// but for a HEAD, which has no body to decode.
func (c *Client) do(ctx context.Context, method, target string, body io.Reader, header ...string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, target, body)
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
	if resp.StatusCode >= 400 && method != http.MethodHead {
		defer resp.Body.Close()
		return nil, decodeErr(resp)
	}
	return resp, nil
}

// call sends one request through do. It returns the reply's header and
// its body, read into one buffer sized by its Content-Length when the
// server announced one.
func (c *Client) call(ctx context.Context, method, target string, body io.Reader, header ...string) (http.Header, []byte, error) {
	resp, err := c.do(ctx, method, target, body, header...)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength)
	return resp.Header, data, err
}

// getJSON GETs target and decodes its JSON reply into v, returning the
// reply's header.
func (c *Client) getJSON(ctx context.Context, target string, v any) (http.Header, error) {
	h, data, err := c.call(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("httpapi: decode %s: %w", target, err)
	}
	return h, nil
}

// CreateAccount provisions an account.
func (c *Client) CreateAccount(ctx context.Context, account string) error {
	_, _, err := c.call(ctx, http.MethodPut, c.base+"/v1/accounts/"+url.PathEscape(account), nil)
	return err
}

// DeleteAccount removes an account and its filesystem.
func (c *Client) DeleteAccount(ctx context.Context, account string) error {
	_, _, err := c.call(ctx, http.MethodDelete, c.base+"/v1/accounts/"+url.PathEscape(account), nil)
	return err
}

// AccountExists probes an account. A reply other than 200 or 404 is an
// error; a HEAD reply has no body, so the error carries only the status.
func (c *Client) AccountExists(ctx context.Context, account string) (bool, error) {
	resp, err := c.do(ctx, http.MethodHead, c.base+"/v1/accounts/"+url.PathEscape(account), nil)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return false, fmt.Errorf("httpapi: account %q: status %d", account, resp.StatusCode)
	}
	return resp.StatusCode == http.StatusOK, nil
}

// ReadRelative performs the quick O(1) namespace-decorated access (§3.2).
func (c *Client) ReadRelative(ctx context.Context, account, rel string) ([]byte, error) {
	_, data, err := c.call(ctx, http.MethodGet, c.base+"/v1/rel/"+url.PathEscape(account)+"/"+escapePath(rel), nil)
	return data, err
}

// ResolveNS asks the server for a directory's namespace UUID, the key to
// subsequent quick relative accesses.
func (c *Client) ResolveNS(ctx context.Context, account, path string) (string, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return "", err
	}
	var out map[string]string
	_, err = c.getJSON(ctx, c.base+"/v1/ns/"+url.PathEscape(account)+escapePath(p), &out)
	return out["ns"], err
}

// Usage fetches an account's filesystem footprint.
func (c *Client) Usage(ctx context.Context, account string) (h2fs.Usage, error) {
	var u h2fs.Usage
	_, err := c.getJSON(ctx, c.base+"/v1/usage/"+url.PathEscape(account), &u)
	return u, err
}

// Stats fetches the server's monitoring snapshot.
func (c *Client) Stats(ctx context.Context) (StatsPayload, error) {
	var out StatsPayload
	_, err := c.getJSON(ctx, c.base+"/v1/stats", &out)
	return out, err
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

// escapePath escapes each segment of p but keeps its separators. A path
// no segment of which needs escaping comes back as itself.
func escapePath(p string) string {
	for rest, more := p, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if url.PathEscape(seg) != seg {
			segs := strings.Split(p, "/")
			for i, s := range segs {
				segs[i] = url.PathEscape(s)
			}
			return strings.Join(segs, "/")
		}
	}
	return p
}

// route builds "<base>/v1/<verb>/<account><path>?<query>" in one
// concatenation, the '&' that starts a non-empty query becoming the '?'.
// Paths are cleaned client-side: the server answers 400 to "//", "/./" or
// "/../" in a URL.
func (f *ClientFS) route(verb, path, query string) (string, error) {
	p, err := fsapi.Clean(path)
	if err != nil {
		return "", err
	}
	sep := ""
	if query != "" {
		sep, query = "?", query[1:]
	}
	return f.c.base + "/v1/" + verb + "/" + url.PathEscape(f.account) + escapePath(p) + sep + query, nil
}

// send sends method to verb's route for path, for its error alone.
func (f *ClientFS) send(ctx context.Context, method, verb, path string, body io.Reader, header ...string) error {
	r, err := f.route(verb, path, "")
	if err == nil {
		_, _, err = f.c.call(ctx, method, r, body, header...)
	}
	return err
}

// pairOp sends MOVE or COPY. The query is built by hand, in the order
// url.Values.Encode would sort it, so the URL is one concatenation.
func (f *ClientFS) pairOp(ctx context.Context, verb, src, dst string) error {
	_, _, err := f.c.call(ctx, http.MethodPost, f.c.base+"/v1/"+verb+"/"+url.PathEscape(f.account)+
		"?dst="+url.QueryEscape(dst)+"&src="+url.QueryEscape(src), nil)
	return err
}

// Mkdir implements fsapi.FileSystem.
func (f *ClientFS) Mkdir(ctx context.Context, path string) error {
	return f.send(ctx, http.MethodPost, "mkdir", path, nil)
}

// Rmdir implements fsapi.FileSystem.
func (f *ClientFS) Rmdir(ctx context.Context, path string) error {
	return f.send(ctx, http.MethodPost, "rmdir", path, nil)
}

// Move implements fsapi.FileSystem.
func (f *ClientFS) Move(ctx context.Context, src, dst string) error {
	return f.pairOp(ctx, "move", src, dst)
}

// Copy implements fsapi.FileSystem.
func (f *ClientFS) Copy(ctx context.Context, src, dst string) error {
	return f.pairOp(ctx, "copy", src, dst)
}

// List implements fsapi.FileSystem.
func (f *ClientFS) List(ctx context.Context, path string, detail bool) ([]fsapi.EntryInfo, error) {
	entries, _, err := f.ListPage(ctx, path, detail, "", 0)
	return entries, err
}

// ListPage lists with Swift-style pagination: at most limit entries
// strictly after marker, plus the next marker ("" when exhausted).
func (f *ClientFS) ListPage(ctx context.Context, path string, detail bool, marker string, limit int) ([]fsapi.EntryInfo, string, error) {
	// Built by hand rather than with url.Values, so a listing with no
	// marker and no limit adds nothing to route's one concatenation.
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
	r, err := f.route("list", path, q)
	if err != nil {
		return nil, "", err
	}
	var entries []Entry
	h, err := f.c.getJSON(ctx, r, &entries)
	if err != nil {
		return nil, "", err
	}
	out := make([]fsapi.EntryInfo, len(entries))
	for i, e := range entries {
		out[i] = fsapi.EntryInfo(e)
	}
	next, err := url.PathUnescape(h.Get("X-Next-Marker"))
	if err != nil {
		return nil, "", fmt.Errorf("httpapi: bad next marker: %w", err)
	}
	return out, next, nil
}

// WriteFile implements fsapi.FileSystem.
func (f *ClientFS) WriteFile(ctx context.Context, path string, data []byte) error {
	return f.send(ctx, http.MethodPut, "fs", path, bytes.NewReader(data))
}

// ReadFile implements fsapi.FileSystem.
func (f *ClientFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	r, err := f.route("fs", path, "")
	if err != nil {
		return nil, err
	}
	_, data, err := f.c.call(ctx, http.MethodGet, r, nil)
	return data, err
}

// WriteFileChunked streams r into a chunked (large object) file: the
// server stores chunkSize-byte segment objects plus a manifest, so the
// upload never materializes in middleware memory and later ranged reads
// touch only the overlapped segments.
func (f *ClientFS) WriteFileChunked(ctx context.Context, path string, r io.Reader, chunkSize int) error {
	return f.send(ctx, http.MethodPut, "fs", path, r, "X-Chunk-Size", strconv.Itoa(chunkSize))
}

// ReadFileRange reads length bytes starting at offset (length < 0 means
// to the end) via an HTTP Range request. Like route's path checks, the
// cases a Range header cannot express are settled here, as the local
// middleware settles them: a negative offset is an invalid path, and an
// empty range — which has no "bytes=a-b" form — reads nothing from a file
// that exists and is not a directory.
func (f *ClientFS) ReadFileRange(ctx context.Context, path string, offset, length int64) ([]byte, error) {
	r, err := f.route("fs", path, "")
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
	// Open-ended, or with a last byte past the largest int64: to the end.
	rng := "bytes=" + strconv.FormatInt(offset, 10) + "-"
	if length > 0 && length-1 <= math.MaxInt64-offset {
		rng += strconv.FormatInt(offset+length-1, 10)
	}
	_, data, err := f.c.call(ctx, http.MethodGet, r, nil, "Range", rng)
	return data, err
}

// Stat implements fsapi.FileSystem.
func (f *ClientFS) Stat(ctx context.Context, path string) (fsapi.EntryInfo, error) {
	r, err := f.route("stat", path, "")
	if err != nil {
		return fsapi.EntryInfo{}, err
	}
	var e Entry
	_, err = f.c.getJSON(ctx, r, &e)
	return fsapi.EntryInfo(e), err
}

// Remove implements fsapi.FileSystem.
func (f *ClientFS) Remove(ctx context.Context, path string) error {
	return f.send(ctx, http.MethodDelete, "fs", path, nil)
}
