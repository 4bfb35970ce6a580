package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/h2cloud/h2cloud/internal/vclock"
)

// httpProbe interposes on both ends of the wire: an http.RoundTripper
// under httpapi.Client and an http.Handler over httpapi.Server.
type httpProbe struct {
	tr *tracer // nil: no spans

	// tracker is the current op's virtual clock in the counted pass. A
	// client-side tracker does not cross the wire, so the handler wrapper
	// attaches it on the server side. The pass is single-client.
	tracker atomic.Pointer[vclock.Tracker]

	conns, reused       atomic.Int64
	reqBytes, respBytes atomic.Int64
}

// spanHeader carries the client's op span to the handler wrapper.
const spanHeader = "X-Bench-Span"

func formatRef(r spanRef) string { return fmt.Sprintf("%d.%d", r.op, r.id) }

func parseRef(s string) (spanRef, bool) {
	op, id, ok := strings.Cut(s, ".")
	if !ok {
		return spanRef{}, false
	}
	o, err1 := strconv.ParseInt(op, 10, 64)
	i, err2 := strconv.ParseInt(id, 10, 64)
	return spanRef{op: o, id: i}, err1 == nil && err2 == nil
}

// stampWriter notes the time of the handler's last write, taken before
// the bytes leave: the handler span ends there, so it always closes
// before the client can have seen the end of the response.
type stampWriter struct {
	http.ResponseWriter
	tr   *tracer
	last int64
	n    int64
}

func (w *stampWriter) WriteHeader(code int) {
	w.last = w.tr.now()
	w.ResponseWriter.WriteHeader(code)
}

func (w *stampWriter) Write(b []byte) (int, error) {
	w.last = w.tr.now()
	w.n += int64(len(b))
	return w.ResponseWriter.Write(b)
}

func (h *httpProbe) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if t := h.tracker.Load(); t != nil {
			ctx = vclock.With(ctx, t)
		}
		parent, ok := parseRef(r.Header.Get(spanHeader))
		if h.tr == nil || !ok {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		ref := h.tr.begin(parent, "httpapi", "handler", "")
		sw := &stampWriter{ResponseWriter: w, tr: h.tr}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(ctx, spanKey{}, ref)))
		if sw.last == 0 {
			sw.last = h.tr.now()
		}
		h.tr.endAt(ref, sw.last, sw.n)
	})
}

type probeTransport struct {
	h    *httpProbe
	next http.RoundTripper
}

func (h *httpProbe) transport(next http.RoundTripper) http.RoundTripper {
	return &probeTransport{h: h, next: next}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// RoundTrip implements http.RoundTripper.
func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.h
	parent := refOf(req.Context())
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			h.conns.Add(1)
			if info.Reused {
				h.reused.Add(1)
			}
		},
	})
	req = req.Clone(ctx)
	h.reqBytes.Add(int64(len(req.Method)+len(req.URL.RequestURI())) + max(req.ContentLength, 0))
	var ref spanRef
	if h.tr != nil && parent.id != 0 {
		req.Header.Set(spanHeader, formatRef(parent))
		ref = h.tr.begin(parent, "httpapi", "roundtrip", "")
	}
	resp, err := t.next.RoundTrip(req)
	if ref.id != 0 {
		h.tr.end(ref, max(req.ContentLength, 0))
	}
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &h.respBytes}
	}
	return resp, err
}
