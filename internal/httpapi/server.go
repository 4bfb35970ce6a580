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
	mux *http.ServeMux
	reg *metrics.Registry
	now func() time.Time
}

// NewServer builds the HTTP handler for a middleware, timing requests on
// the wall clock — the inbound web API is the daemon edge where real
// time is allowed to enter.
func NewServer(mw *h2fs.Middleware) *Server {
	s := &Server{mw: mw, mux: http.NewServeMux(), reg: metrics.NewRegistry(), now: time.Now}
	s.mux.HandleFunc("PUT /v1/accounts/{account}", s.createAccount)
	s.mux.HandleFunc("DELETE /v1/accounts/{account}", s.deleteAccount)
	s.mux.HandleFunc("HEAD /v1/accounts/{account}", s.headAccount)
	s.mux.HandleFunc("GET /v1/fs/{account}/{path...}", s.readFile)
	s.mux.HandleFunc("PUT /v1/fs/{account}/{path...}", s.writeFile)
	s.mux.HandleFunc("DELETE /v1/fs/{account}/{path...}", s.removeFile)
	s.mux.HandleFunc("GET /v1/stat/{account}/{path...}", s.stat)
	s.mux.HandleFunc("GET /v1/list/{account}/{path...}", s.list)
	s.mux.HandleFunc("POST /v1/mkdir/{account}/{path...}", s.mkdir)
	s.mux.HandleFunc("POST /v1/rmdir/{account}/{path...}", s.rmdir)
	s.mux.HandleFunc("POST /v1/move/{account}", s.move)
	s.mux.HandleFunc("POST /v1/copy/{account}", s.copy)
	s.mux.HandleFunc("GET /v1/rel/{account}/{rel...}", s.readRelative)
	s.mux.HandleFunc("GET /v1/ns/{account}/{path...}", s.resolveNS)
	s.mux.HandleFunc("GET /v1/usage/{account}", s.usage)
	s.mux.HandleFunc("GET /v1/stats", s.stats)
	return s
}

// ServeHTTP implements http.Handler, recording per-route metrics for the
// monitoring module (§4.2).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	var err error
	if sw.status >= 500 {
		err = fmt.Errorf("status %d", sw.status)
	}
	s.reg.Observe(routeName(r), s.now().Sub(start), err)
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// routeName maps a request to its metrics bucket: the verb segment of the
// /v1/<verb>/... routes plus the method.
func routeName(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/")
	if !ok {
		return r.Method + " other"
	}
	verb := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		verb = rest[:i]
	}
	return r.Method + " " + verb
}

// StatsPayload is the /v1/stats response body.
type StatsPayload struct {
	Node    int                  `json:"node"`
	Ops     []metrics.OpSnapshot `json:"ops"`
	Cluster *cluster.Stats       `json:"cluster,omitempty"`
	// Counters carries the robustness counters (retries, injected faults,
	// degraded reads) when the middleware has a registry configured.
	Counters []metrics.CounterSnapshot `json:"counters,omitempty"`
	// GCQueue carries reclamation-queue depth and lifetime counters when
	// the durable GC queue is configured.
	GCQueue *h2fs.GCQueueStats `json:"gcQueue,omitempty"`
}

// stats serves the monitoring snapshot: per-route operation metrics plus
// the storage cloud's primitive counters when the backing store exposes
// them.
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	payload := StatsPayload{Node: s.mw.Node(), Ops: s.reg.Snapshot()}
	if c, ok := s.mw.Store().(*cluster.Cluster); ok {
		st := c.Stats()
		payload.Cluster = &st
	}
	payload.Counters = s.mw.Metrics().Counters()
	if q, err := s.mw.GCQueueSnapshot(r.Context()); err == nil && q != nil {
		// A failed snapshot only drops the gauge from this response; the
		// rest of the monitoring payload is still worth serving.
		payload.GCQueue = q
	}
	writeJSON(w, payload)
}

// usage serves the account's filesystem footprint.
func (s *Server) usage(w http.ResponseWriter, r *http.Request) {
	u, err := s.mw.Usage(r.Context(), r.PathValue("account"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, u)
}

// resolveNS resolves a directory path to its namespace UUID so clients
// can use the quick O(1) relative-access method afterwards.
func (s *Server) resolveNS(w http.ResponseWriter, r *http.Request) {
	ns, err := s.mw.ResolveNS(r.Context(), r.PathValue("account"), fsPath(r))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, map[string]string{"ns": ns})
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

// writeErr sends err's wireErrors row, with Retry-After on a 503.
func writeErr(w http.ResponseWriter, err error) {
	status, code := wireRow(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeAPIError(w, status, code, err.Error())
}

// writeAPIError writes the JSON error body decodeErr reads back.
func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// fsPath reconstructs the absolute filesystem path from the wildcard.
func fsPath(r *http.Request) string {
	return "/" + r.PathValue("path")
}

func (s *Server) createAccount(w http.ResponseWriter, r *http.Request) {
	if err := s.mw.CreateAccount(r.Context(), r.PathValue("account")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) deleteAccount(w http.ResponseWriter, r *http.Request) {
	if err := s.mw.DeleteAccount(r.Context(), r.PathValue("account")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) headAccount(w http.ResponseWriter, r *http.Request) {
	ok, err := s.mw.AccountExists(r.Context(), r.PathValue("account"))
	switch {
	case err != nil:
		writeErr(w, err)
	case !ok:
		w.WriteHeader(http.StatusNotFound)
	}
}

func (s *Server) readFile(w http.ResponseWriter, r *http.Request) {
	account, path := r.PathValue("account"), fsPath(r)
	if rng := r.Header.Get("Range"); rng != "" {
		offset, length, ok := parseRange(rng)
		if !ok {
			// Typed like a bad path, so the client's errors.Is sees it.
			_, code := wireRow(fsapi.ErrInvalidPath)
			writeAPIError(w, http.StatusRequestedRangeNotSatisfiable, code, fmt.Sprintf("bad Range %q", rng))
			return
		}
		data, err := s.mw.ReadFileRange(r.Context(), account, path, offset, length)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Range",
			fmt.Sprintf("bytes %d-%d/*", offset, offset+int64(len(data))-1))
		w.WriteHeader(http.StatusPartialContent)
		_, _ = w.Write(data)
		return
	}
	data, err := s.mw.ReadFile(r.Context(), account, path)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
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

func (s *Server) writeFile(w http.ResponseWriter, r *http.Request) {
	if cs := r.Header.Get("X-Chunk-Size"); cs != "" {
		// Chunked (large object) upload: stream the body into segment
		// objects plus a manifest without buffering the whole file.
		chunkSize, err := strconv.Atoi(cs)
		if err != nil || chunkSize <= 0 {
			writeErr(w, fmt.Errorf("bad X-Chunk-Size %q: %w", cs, fsapi.ErrInvalidPath))
			return
		}
		if err := s.mw.WriteFileChunked(r.Context(), r.PathValue("account"), fsPath(r), r.Body, chunkSize); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, fmt.Errorf("read body: %w", err))
		return
	}
	if err := s.mw.WriteFile(r.Context(), r.PathValue("account"), fsPath(r), data); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) removeFile(w http.ResponseWriter, r *http.Request) {
	if err := s.mw.Remove(r.Context(), r.PathValue("account"), fsPath(r)); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) stat(w http.ResponseWriter, r *http.Request) {
	info, err := s.mw.Stat(r.Context(), r.PathValue("account"), fsPath(r))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, Entry(info))
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	detail := q.Get("detail") == "1"
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("bad limit %q: %w", ls, fsapi.ErrInvalidPath))
			return
		}
		limit = n
	}
	entries, next, err := s.mw.ListPage(r.Context(), r.PathValue("account"), fsPath(r), detail, q.Get("marker"), limit)
	if err != nil {
		writeErr(w, err)
		return
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
	writeJSON(w, out)
}

func (s *Server) mkdir(w http.ResponseWriter, r *http.Request) {
	if err := s.mw.Mkdir(r.Context(), r.PathValue("account"), fsPath(r)); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) rmdir(w http.ResponseWriter, r *http.Request) {
	if err := s.mw.Rmdir(r.Context(), r.PathValue("account"), fsPath(r)); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) move(w http.ResponseWriter, r *http.Request) {
	src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	if err := s.mw.Move(r.Context(), r.PathValue("account"), src, dst); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) copy(w http.ResponseWriter, r *http.Request) {
	src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	if err := s.mw.Copy(r.Context(), r.PathValue("account"), src, dst); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) readRelative(w http.ResponseWriter, r *http.Request) {
	data, _, err := s.mw.AccessRelative(r.Context(), r.PathValue("account"), r.PathValue("rel"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}
