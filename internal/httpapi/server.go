// Package httpapi implements the Inbound API of an H2Middleware (paper
// §4.3): the web APIs through which PC/mobile clients and browsers reach
// H2Cloud.
//
// Three API families are exposed, as in the paper: Account APIs that
// create or delete a user's account, Directory APIs that traverse or
// modify directory structure (MKDIR, RMDIR, MOVE, COPY, LIST), and File
// Content APIs providing READ and WRITE access. A Go client wrapping the
// same routes lives in client.go; it implements fsapi.FileSystem so the
// whole stack can be driven end-to-end.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/h2cloud/h2cloud/internal/cluster"
	"github.com/h2cloud/h2cloud/internal/fsapi"
	"github.com/h2cloud/h2cloud/internal/h2fs"
	"github.com/h2cloud/h2cloud/internal/metrics"
	"github.com/h2cloud/h2cloud/internal/objstore"
)

// Server serves the H2Cloud web APIs over one middleware.
type Server struct {
	mw  *h2fs.Middleware
	reg *metrics.Registry
	now func() time.Time
}

// NewServer builds the HTTP handler for a middleware, timing requests on
// the wall clock — the inbound web API is the daemon edge where real
// time is allowed to enter.
func NewServer(mw *h2fs.Middleware) *Server {
	return &Server{mw: mw, reg: metrics.NewRegistry(), now: time.Now}
}

// shape is what a verb's URLs hold after /v1/<verb>.
type shape uint8

const (
	bare        shape = iota // nothing: /v1/stats
	accountOnly              // one segment: /v1/accounts/<account>
	accountPath              // an account, then a path: /v1/fs/<account>/<path...>
)

type routeKey struct{ method, verb string }

// route is one row of the dispatch table. Its handler gets the unescaped
// rest of the URL after the account, with its leading '/'.
type route struct {
	name   string
	shape  shape
	handle func(s *Server, w http.ResponseWriter, r *http.Request, account, path string) error
}

// routes is the dispatch table. A HEAD is served by the verb's GET route
// when the verb has no HEAD route of its own.
var routes = map[routeKey]route{
	{"PUT", "accounts"}:    {"PUT accounts", accountOnly, (*Server).createAccount},
	{"DELETE", "accounts"}: {"DELETE accounts", accountOnly, (*Server).deleteAccount},
	{"HEAD", "accounts"}:   {"HEAD accounts", accountOnly, (*Server).headAccount},
	{"GET", "fs"}:          {"GET fs", accountPath, (*Server).readFile},
	{"PUT", "fs"}:          {"PUT fs", accountPath, (*Server).writeFile},
	{"DELETE", "fs"}:       {"DELETE fs", accountPath, (*Server).removeFile},
	{"GET", "stat"}:        {"GET stat", accountPath, (*Server).stat},
	{"GET", "list"}:        {"GET list", accountPath, (*Server).list},
	{"POST", "mkdir"}:      {"POST mkdir", accountPath, (*Server).mkdir},
	{"POST", "rmdir"}:      {"POST rmdir", accountPath, (*Server).rmdir},
	{"POST", "move"}:       {"POST move", accountOnly, (*Server).move},
	{"POST", "copy"}:       {"POST copy", accountOnly, (*Server).copy},
	{"GET", "rel"}:         {"GET rel", accountPath, (*Server).readRelative},
	{"GET", "ns"}:          {"GET ns", accountPath, (*Server).resolveNS},
	{"GET", "usage"}:       {"GET usage", accountOnly, (*Server).usage},
	{"GET", "stats"}:       {"GET stats", bare, (*Server).stats},
}

// unmatched is the /v1/stats bucket of every request no route served.
const unmatched = "unmatched"

// lookup returns the route serving method on verb.
func lookup(method, verb string) (route, bool) {
	rt, ok := routes[routeKey{method, verb}]
	if !ok && method == http.MethodHead {
		rt, ok = routes[routeKey{http.MethodGet, verb}]
	}
	return rt, ok
}

// ServeHTTP implements http.Handler: it answers a route's error through
// writeErr, and records the request under the route's bucket for the
// monitoring module (§4.2), counting only a 5xx as an error.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	name, err := s.dispatch(w, r)
	if err != nil && writeErr(w, err) < http.StatusInternalServerError {
		err = nil
	}
	s.reg.Observe(name, s.now().Sub(start), err)
}

// dispatch cuts the escaped URL path once into verb, account and path,
// unescaping a part only if it holds a '%', and runs the route. A path
// that is not absolute or has an empty, "." or ".." segment is a 400:
// redirecting it to its clean form, as http.ServeMux did, turns a PUT
// into a bodiless GET that reports success. An unknown verb or a URL of
// the wrong shape for its verb is a 404, a method the verb has no route
// for a 405 with Allow.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) (string, error) {
	p := r.URL.EscapedPath()
	if !strings.HasPrefix(p, "/") || strings.Contains(p, "//") || strings.Contains(p, "/./") ||
		strings.Contains(p, "/../") || strings.HasSuffix(p, "/.") || strings.HasSuffix(p, "/..") {
		return unmatched, fmt.Errorf("%w: %q is not canonical", fsapi.ErrInvalidPath, p)
	}
	// Outside /v1/ the verb is "", which no route has.
	verb, rest, more := strings.Cut(strings.TrimPrefix(p, "/v1/"), "/")
	verb = unescape(verb)
	account, _, _ := strings.Cut(rest, "/")
	path := rest[len(account):]
	rt, ok := lookup(r.Method, verb)
	var allow []string
	if !ok {
		// The methods the verb has routes for, sorted as Allow lists them.
		for _, m := range []string{"DELETE", "GET", "HEAD", "POST", "PUT"} {
			if other, found := lookup(m, verb); found {
				allow, rt.shape = append(allow, m), other.shape
			}
		}
	}
	if (!ok && allow == nil) || (rt.shape == bare && more) ||
		(rt.shape != bare && account == "") || (rt.shape == accountOnly && path != "") {
		http.NotFound(w, r)
		return unmatched, nil
	}
	if !ok {
		w.Header()["Allow"] = []string{strings.Join(allow, ", ")}
		http.Error(w, "Method Not Allowed", http.StatusMethodNotAllowed)
		return unmatched, nil
	}
	if rt.shape == accountPath && path == "" {
		return unmatched, fmt.Errorf("%w: %q has no path after the account", fsapi.ErrInvalidPath, p)
	}
	return rt.name, rt.handle(s, w, r, unescape(account), unescape(path))
}

// unescape unescapes a part of an escaped path that holds a '%'. It cannot
// fail: EscapedPath is a valid escaping, and no escape spans a '/'.
func unescape(s string) string {
	if strings.IndexByte(s, '%') >= 0 {
		s, _ = url.PathUnescape(s)
	}
	return s
}

// StatsPayload is the /v1/stats response body.
type StatsPayload struct {
	Node int `json:"node"`
	// Ops carries the per-route operations, then the middleware's
	// store.<op> observations.
	Ops     []metrics.OpSnapshot `json:"ops"`
	Cluster *cluster.Stats       `json:"cluster,omitempty"`
	// Counters carries the middleware registry's counters (retries,
	// injected faults, degraded reads, descriptor-cache gauges).
	Counters []metrics.CounterSnapshot `json:"counters,omitempty"`
	// GCQueue carries reclamation-queue depth and lifetime counters when
	// the durable GC queue is configured.
	GCQueue *h2fs.GCQueueStats `json:"gcQueue,omitempty"`
	// Requests is the middleware's request table: store requests and
	// payload bytes by primitive, then by key kind, zero cells left out.
	Requests map[string]map[string]metrics.Requests `json:"requests,omitempty"`
}

// stats serves the monitoring snapshot: per-route and per-store-primitive
// operation metrics, the request table, plus the storage cloud's
// primitive counters when the backing store exposes them.
func (s *Server) stats(w http.ResponseWriter, r *http.Request, _, _ string) error {
	reg := s.mw.Metrics()
	payload := StatsPayload{Node: s.mw.Node(), Ops: append(s.reg.Snapshot(), reg.Snapshot()...)}
	if c, ok := s.mw.Store().(*cluster.Cluster); ok {
		st := c.Stats()
		payload.Cluster = &st
	}
	payload.Counters, payload.Requests = reg.Counters(), reg.Requests().Named()
	if q, err := s.mw.GCQueueSnapshot(r.Context()); err == nil && q != nil {
		// A failed snapshot only drops the gauge from this response; the
		// rest of the monitoring payload is still worth serving.
		payload.GCQueue = q
	}
	return writeJSON(w, payload, nil)
}

// usage serves the account's filesystem footprint.
func (s *Server) usage(w http.ResponseWriter, r *http.Request, account, _ string) error {
	u, err := s.mw.Usage(r.Context(), account)
	return writeJSON(w, u, err)
}

// resolveNS resolves a directory path to its namespace UUID so clients
// can use the quick O(1) relative-access method afterwards.
func (s *Server) resolveNS(w http.ResponseWriter, r *http.Request, account, path string) error {
	ns, err := s.mw.ResolveNS(r.Context(), account, path)
	return writeJSON(w, map[string]string{"ns": ns}, err)
}

// Entry is the JSON form of fsapi.EntryInfo: the same fields, so the two
// convert into each other.
type Entry struct {
	Name    string    `json:"name"`
	IsDir   bool      `json:"isDir"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"modTime"`
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// wireErrors is the web API's error taxonomy, in match order: writeErr
// sends the first row whose sentinel the error wraps, and decodeErr
// rebuilds a code as the first row that carries it, so errors.Is works
// the same on both sides of the wire. Both not-found sentinels travel as
// "not_found" and arrive as fsapi.ErrNotFound. Transient cloud faults are
// 503s, so clients can tell "gone" (404, give up) from "unavailable"
// (503, retry).
var wireErrors = []struct {
	err    error
	status int
	code   string
}{
	{objstore.ErrNodeDown, http.StatusServiceUnavailable, "node_down"},
	{objstore.ErrNoQuorum, http.StatusServiceUnavailable, "no_quorum"},
	{fsapi.ErrNotFound, http.StatusNotFound, "not_found"},
	{objstore.ErrNotFound, http.StatusNotFound, "not_found"},
	{fsapi.ErrExists, http.StatusConflict, "exists"},
	{fsapi.ErrNotDir, http.StatusConflict, "not_dir"},
	{fsapi.ErrIsDir, http.StatusConflict, "is_dir"},
	{fsapi.ErrInvalidPath, http.StatusBadRequest, "invalid_path"},
	{fsapi.ErrCrossAccount, http.StatusForbidden, "cross_account"},
	{objstore.ErrPrecondition, http.StatusPreconditionFailed, "precondition_failed"},
}

// wireRow returns the status and code of the first wireErrors row err
// matches, or a 500 "internal" when none does.
func wireRow(err error) (status int, code string) {
	for _, row := range wireErrors {
		if errors.Is(err, row.err) {
			return row.status, row.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// Reply header values, assigned to the header map instead of Set so no
// reply builds them again; net/http only reads them.
var (
	jsonType   = []string{"application/json"}
	octetType  = []string{"application/octet-stream"}
	retryAfter = []string{"1"}
)

// writeErr sends err's wireErrors row, with Retry-After on a 503, and
// returns the status it sent.
func writeErr(w http.ResponseWriter, err error) int {
	status, code := wireRow(err)
	if status == http.StatusServiceUnavailable {
		w.Header()["Retry-After"] = retryAfter
	}
	writeAPIError(w, status, code, err.Error())
	return status
}

// writeAPIError writes the JSON error body decodeErr reads back.
func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// writeJSON answers a handler's call: its error, or else v as JSON.
func writeJSON(w http.ResponseWriter, v any, err error) error {
	if err == nil {
		w.Header()["Content-Type"] = jsonType
		_ = json.NewEncoder(w).Encode(v)
	}
	return err
}

// reply answers a handler's call: its error, or else status.
func reply(w http.ResponseWriter, status int, err error) error {
	if err == nil {
		w.WriteHeader(status)
	}
	return err
}

// writeBytes answers a read: its error, or else status and data as an
// octet stream.
func writeBytes(w http.ResponseWriter, status int, data []byte, err error) error {
	if err == nil {
		w.Header()["Content-Type"] = octetType
		w.WriteHeader(status)
		_, _ = w.Write(data)
	}
	return err
}

func (s *Server) createAccount(w http.ResponseWriter, r *http.Request, account, _ string) error {
	return reply(w, http.StatusCreated, s.mw.CreateAccount(r.Context(), account))
}

func (s *Server) deleteAccount(w http.ResponseWriter, r *http.Request, account, _ string) error {
	return reply(w, http.StatusNoContent, s.mw.DeleteAccount(r.Context(), account))
}

func (s *Server) headAccount(w http.ResponseWriter, r *http.Request, account, _ string) error {
	ok, err := s.mw.AccountExists(r.Context(), account)
	if err == nil && !ok {
		w.WriteHeader(http.StatusNotFound)
	}
	return err
}

func (s *Server) readFile(w http.ResponseWriter, r *http.Request, account, path string) error {
	rng := r.Header.Get("Range")
	if rng == "" {
		data, err := s.mw.ReadFile(r.Context(), account, path)
		return writeBytes(w, http.StatusOK, data, err)
	}
	offset, length, ok := parseRange(rng)
	if !ok {
		// Typed like a bad path, so the client's errors.Is sees it.
		_, code := wireRow(fsapi.ErrInvalidPath)
		writeAPIError(w, http.StatusRequestedRangeNotSatisfiable, code, fmt.Sprintf("bad Range %q", rng))
		return nil
	}
	data, err := s.mw.ReadFileRange(r.Context(), account, path, offset, length)
	if err == nil {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", offset, offset+int64(len(data))-1))
	}
	return writeBytes(w, http.StatusPartialContent, data, err)
}

// parseRange understands the single-range form "bytes=start-end" (end
// optional and inclusive, as in RFC 9110).
func parseRange(h string) (offset, length int64, ok bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.ContainsRune(spec, ',') {
		return 0, 0, false
	}
	startStr, endStr, found := strings.Cut(spec, "-")
	if !found || startStr == "" {
		return 0, 0, false // suffix ranges ("-N") are not supported
	}
	start, err := strconv.ParseInt(startStr, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, false
	}
	if endStr == "" {
		return start, -1, true
	}
	end, err := strconv.ParseInt(endStr, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	return start, end - start + 1, true
}

// maxSizedBody caps the buffer an announced Content-Length sizes up
// front. Past it, or with no length, a body is read with io.ReadAll, so a
// peer that claims a huge body cannot force a huge allocation.
const maxSizedBody = 1 << 20

// readBody reads a body the peer announced as n bytes (-1: unknown).
func readBody(body io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(body)
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(body, buf)
	return buf, err
}

func (s *Server) writeFile(w http.ResponseWriter, r *http.Request, account, path string) error {
	if cs := r.Header.Get("X-Chunk-Size"); cs != "" {
		// Chunked (large object) upload: stream the body into segment
		// objects plus a manifest without buffering the whole file.
		chunkSize, err := strconv.Atoi(cs)
		if err != nil || chunkSize <= 0 {
			return fmt.Errorf("bad X-Chunk-Size %q: %w", cs, fsapi.ErrInvalidPath)
		}
		return reply(w, http.StatusCreated, s.mw.WriteFileChunked(r.Context(), account, path, r.Body, chunkSize))
	}
	data, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return reply(w, http.StatusCreated, s.mw.WriteFile(r.Context(), account, path, data))
}

func (s *Server) removeFile(w http.ResponseWriter, r *http.Request, account, path string) error {
	return reply(w, http.StatusNoContent, s.mw.Remove(r.Context(), account, path))
}

func (s *Server) stat(w http.ResponseWriter, r *http.Request, account, path string) error {
	info, err := s.mw.Stat(r.Context(), account, path)
	return writeJSON(w, Entry(info), err)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request, account, path string) error {
	q := r.URL.Query()
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		var err error
		if limit, err = strconv.Atoi(ls); err != nil || limit < 0 {
			return fmt.Errorf("bad limit %q: %w", ls, fsapi.ErrInvalidPath)
		}
	}
	entries, next, err := s.mw.ListPage(r.Context(), account, path, q.Get("detail") == "1", q.Get("marker"), limit)
	if err != nil {
		return err
	}
	if next != "" {
		// A child name may hold any byte but '/', a header value may not:
		// the marker travels percent-encoded.
		w.Header().Set("X-Next-Marker", url.PathEscape(next))
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry(e)
	}
	return writeJSON(w, out, nil)
}

func (s *Server) mkdir(w http.ResponseWriter, r *http.Request, account, path string) error {
	return reply(w, http.StatusCreated, s.mw.Mkdir(r.Context(), account, path))
}

func (s *Server) rmdir(w http.ResponseWriter, r *http.Request, account, path string) error {
	return reply(w, http.StatusNoContent, s.mw.Rmdir(r.Context(), account, path))
}

func (s *Server) move(w http.ResponseWriter, r *http.Request, account, _ string) error {
	q := r.URL.Query()
	return reply(w, http.StatusNoContent, s.mw.Move(r.Context(), account, q.Get("src"), q.Get("dst")))
}

func (s *Server) copy(w http.ResponseWriter, r *http.Request, account, _ string) error {
	q := r.URL.Query()
	return reply(w, http.StatusCreated, s.mw.Copy(r.Context(), account, q.Get("src"), q.Get("dst")))
}

func (s *Server) readRelative(w http.ResponseWriter, r *http.Request, account, path string) error {
	data, _, err := s.mw.AccessRelative(r.Context(), account, path[1:])
	return writeBytes(w, http.StatusOK, data, err)
}
