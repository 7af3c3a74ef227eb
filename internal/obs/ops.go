// The ops endpoint: one http.Handler exposing everything an operator (or a
// Prometheus scraper) needs from a running server — /metrics, /healthz,
// /trace, and the net/http/pprof profile handlers.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// Ops is the ops HTTP endpoint. Routes:
//
//	/healthz              liveness JSON: {"status":"ok","uptime_seconds":...}
//	/metrics              Prometheus text exposition (all registered collectors)
//	/trace                Chrome trace-event JSON of the last N spans (?n= limit)
//	/debug/pprof/...      net/http/pprof (profile, heap, goroutine, trace, ...)
//
// Collectors are funcs writing Prometheus text; the endpoint concatenates
// them so the serving layer's registry and the fleet registry compose
// without this package importing either.
type Ops struct {
	tracer *Tracer
	start  time.Time
	mux    *http.ServeMux

	mu         sync.Mutex
	collectors []func(io.Writer)
}

// NewOps builds the endpoint over a tracer (nil is fine: /trace serves an
// empty trace).
func NewOps(t *Tracer) *Ops {
	o := &Ops{tracer: t, start: time.Now(), mux: http.NewServeMux()}
	o.mux.HandleFunc("/healthz", o.serveHealthz)
	o.mux.HandleFunc("/metrics", o.serveMetrics)
	o.mux.HandleFunc("/trace", o.serveTrace)
	o.mux.HandleFunc("/debug/pprof/", pprof.Index)
	o.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	o.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	o.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	o.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return o
}

// AddCollector registers a Prometheus text writer invoked on every
// /metrics scrape, in registration order.
func (o *Ops) AddCollector(f func(io.Writer)) {
	o.mu.Lock()
	o.collectors = append(o.collectors, f)
	o.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (o *Ops) ServeHTTP(w http.ResponseWriter, r *http.Request) { o.mux.ServeHTTP(w, r) }

func (o *Ops) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // best-effort health reply
		"status":         "ok",
		"uptime_seconds": time.Since(o.start).Seconds(),
	})
}

func (o *Ops) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	o.mu.Lock()
	collectors := append([]func(io.Writer){}, o.collectors...)
	o.mu.Unlock()
	for _, f := range collectors {
		f(w)
	}
	_, _ = w.Write(Render(o.tracer, opsFamilies)) // a failed scrape is the scraper's to notice
}

// opsFamilies is the endpoint's own meta-metrics: span ring pressure.
var opsFamilies = []Family[*Tracer]{
	{Name: "obs_spans_dropped_total", Type: "counter", Help: "Spans evicted from the trace ring.", Collect: func(t *Tracer, e *Emitter) { e.Uint(t.Dropped()) }},
}

func (o *Ops) serveTrace(w http.ResponseWriter, r *http.Request) {
	spans := o.tracer.Spans()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
			return
		}
		if n < len(spans) {
			spans = spans[len(spans)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="tpusim-trace.json"`)
	if err := WriteChromeTrace(w, spans); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// OpsServer is a running ops endpoint.
type OpsServer struct {
	// URL is the base URL, e.g. http://127.0.0.1:39123.
	URL string
	srv *http.Server
}

// Start listens on addr (host:port; ":0" picks a free port) and serves the
// endpoint in the background until Close.
func (o *Ops) Start(addr string) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: o}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &OpsServer{URL: "http://" + ln.Addr().String(), srv: srv}, nil
}

// Close stops the listener and in-flight handlers.
func (s *OpsServer) Close() error { return s.srv.Close() }
