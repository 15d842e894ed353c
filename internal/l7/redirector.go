package l7

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/treenet"
)

// DefaultRetryBudget is the per-window cap on proxy-mode failover retries
// when RedirectorConfig.RetryBudget is zero: enough to ride out a backend
// dying mid-window, small enough that a dead fleet cannot turn every
// admitted request into a retry storm.
const DefaultRetryBudget = 8

// RedirectorConfig parameterizes a Layer-7 redirector.
type RedirectorConfig struct {
	Engine *core.Engine
	// ID distinguishes redirectors of the same engine.
	ID int
	// Addr is the HTTP bind address (use "127.0.0.1:0" for tests).
	Addr string
	// Orgs maps the first URL path segment under /svc/ to a principal,
	// e.g. {"acme": A}. Requests for unknown orgs get 404.
	Orgs map[string]agreement.Principal
	// Backends maps owner principals to backend base URLs.
	Backends map[agreement.Principal][]string
	// Tree, if non-nil, connects this redirector to its peers; when nil the
	// redirector coordinates with nobody (single-node enforcement) and
	// feeds its own estimate back as the global view.
	Tree *treenet.Spec
	// Proxy selects single-round-trip operation: instead of answering with
	// a 302, the redirector forwards admitted requests to the backend
	// itself and relays the response. This is the SOAP-redirector variant
	// §4.1 mentions to avoid HTTP's doubled round trips; over-quota
	// requests get 503 + Retry-After instead of a self-redirect.
	Proxy bool
	// TraceDepth is the window-trace ring capacity served at /debug/windows
	// (0 selects obs.DefaultRingDepth).
	TraceDepth int
	// Health, if non-nil, enables active backend health checking: down
	// backends are skipped by backend choice, proxy-mode requests fail over
	// to another backend of the same owner, and every down/up transition
	// re-interprets the agreements against the surviving capacity
	// (Engine.UpdateCapacities, the paper's §2.2 made automatic).
	Health *health.Options
	// Ctrl, if true, attaches the dynamic agreement control plane to this
	// redirector's admin surface (/v1/agreements, /v1/principals/...).
	// With a tree, accepted mutations are epoch-gated and piggybacked on
	// this node's downward broadcasts — enable Ctrl on the tree root only.
	// Without a tree, mutations commit at the next window boundary.
	Ctrl bool
	// CtrlLead is the rollout gate lead in tree epochs (<=0 selects
	// ctrlplane.DefaultLead). Ignored unless Ctrl is set.
	CtrlLead int
	// AdmissionShards sets the admission plane's credit shard count
	// (0 selects GOMAXPROCS; see internal/admission).
	AdmissionShards int
	// Trace, if non-nil, enables request-span tracing: per-request phase
	// timestamps (admit, backend choice, first byte, close) recorded with
	// zero allocations, head-sampled plus slowest-K-per-window, served at
	// /v1/debug/trace; span IDs are attached to the request-latency
	// histogram buckets as exemplars.
	Trace *obs.TraceConfig
	// Flight, if non-nil, arms the SLO flight recorder: an under-floor
	// settled window or a span breaching Flight.SLO freezes a bounded
	// capture served at /v1/debug/flight. Requires Trace.
	Flight *obs.FlightConfig
	// Persist, if non-nil, arms the durable-state plane (internal/persist):
	// at boot the redirector restores its window position, carried credit,
	// demand estimate and newest agreement set from the store, announces a
	// tree rejoin from the durable epoch, and resumes appending one window
	// record per window. The caller owns the store's lifecycle; Close
	// checkpoints but does not close it.
	Persist *persist.Store
	// RetryBudget caps proxy-mode failover retries per window (0 selects
	// DefaultRetryBudget, negative disables failover): once a window's
	// budget is spent, a failed backend exchange fails fast instead of
	// being retried elsewhere, and rsa_l7_retry_budget_exhausted_total
	// counts the cutoffs.
	RetryBudget int
}

// Redirector is the Layer-7 switch: an HTTP server answering every request
// for /svc/<org>/... with a 302 — either to a backend of the owner chosen
// by the scheduler, or to itself when the principal is over quota this
// window (the implicit-queue self-redirect of §4.1). The embedded runtime
// runs the window loop, the combining tree, persistence and the admin
// surface; this type is the listener and the request path.
type Redirector struct {
	*node.Runtime
	cfg RedirectorConfig
	srv *http.Server
	ln  net.Listener

	// The runtime's boundary lock and core redirector (stats reads only),
	// and the handles the lock-free request path uses directly.
	mu      *sync.Mutex
	red     *core.Redirector
	adm     *admission.Plane
	tracer  *obs.Tracer
	checker *health.Checker

	rr           []atomic.Uint32 // round-robin cursor per owner principal
	lat          *obs.Histogram  // per-request handling latency
	warnFailover *obs.RateLimit  // proxy-failover warning gate
	client       *http.Client

	// Proxy failover budget: refilled after each window boundary, drawn by
	// failover attempts on the request path.
	retryTokens    atomic.Int64
	retryExhausted atomic.Uint64
}

// NewRedirector starts a Layer-7 redirector.
func NewRedirector(cfg RedirectorConfig) (*Redirector, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("l7: nil engine")
	}
	if len(cfg.Orgs) == 0 || len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("l7: need org and backend maps")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("l7: listen %s: %w", cfg.Addr, err)
	}
	r := &Redirector{
		cfg:          cfg,
		ln:           ln,
		rr:           make([]atomic.Uint32, cfg.Engine.NumPrincipals()),
		lat:          obs.NewHistogram(),
		warnFailover: obs.NewRateLimit(5*time.Second, 1),
	}
	r.Runtime, err = node.New(node.Config{
		Engine: cfg.Engine, ID: cfg.ID, Backends: cfg.Backends, Tree: cfg.Tree,
		TraceDepth: cfg.TraceDepth, Trace: cfg.Trace, Flight: cfg.Flight,
		Health: cfg.Health, Ctrl: cfg.Ctrl, CtrlLead: cfg.CtrlLead,
		AdmissionShards: cfg.AdmissionShards, Persist: cfg.Persist,
		Metrics: r.metrics,
		Histograms: []obs.NamedHistogram{{
			Name: "rsa_l7_request_seconds",
			Help: "Layer-7 request handling latency (admission + redirect or full proxy exchange).",
			Hist: r.lat,
		}},
		// Refill the proxy failover budget for the new window.
		AfterWindow: func(error) { r.retryTokens.Store(int64(r.retryBudget())) },
		OnClose: func() error {
			err := r.srv.Close()
			r.client.CloseIdleConnections()
			return err
		},
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	r.mu, r.red = r.Boundary()
	r.adm, r.tracer, r.checker = r.Admission(), r.Tracer(), r.Checker()

	// Proxy-mode backend client: pooled transport with dial and
	// response-header deadlines, so a dead backend costs a bounded error
	// instead of a request hung on http.DefaultClient forever. With tracing
	// on, dials feed the tracer's dial-phase histogram (the HTTP client
	// dials inside the transport, where no request span is in scope).
	dial := (&net.Dialer{Timeout: 2 * time.Second}).DialContext
	if r.tracer != nil {
		tr, inner := r.tracer, dial
		dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			dialStart := time.Now()
			conn, derr := inner(ctx, network, addr)
			tr.ObserveDial(time.Since(dialStart))
			return conn, derr
		}
	}
	r.client = &http.Client{
		Transport: &http.Transport{
			DialContext:           dial,
			ResponseHeaderTimeout: 10 * time.Second,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   128,
			IdleConnTimeout:       30 * time.Second,
		},
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/svc/", r.handle)
	mux.HandleFunc("/stats", r.handleStats)
	r.ObsHandler().Register(mux)
	r.srv = &http.Server{Handler: mux}
	go func() { _ = r.srv.Serve(ln) }()

	r.retryTokens.Store(int64(r.retryBudget()))
	r.Start()
	return r, nil
}

// URL returns the redirector's base URL.
func (r *Redirector) URL() string { return "http://" + r.ln.Addr().String() }

// retryBudget resolves the configured per-window failover budget.
func (r *Redirector) retryBudget() int {
	switch {
	case r.cfg.RetryBudget > 0:
		return r.cfg.RetryBudget
	case r.cfg.RetryBudget < 0:
		return 0
	default:
		return DefaultRetryBudget
	}
}

// handle answers /svc/<org>/<rest> with a redirect (or, in proxy mode, the
// proxied backend response). When tracing is enabled the request may carry
// a pre-allocated span (nil-safe stamps, zero allocations); the finished
// span's ID is attached to the latency histogram bucket as an exemplar.
func (r *Redirector) handle(w http.ResponseWriter, req *http.Request) {
	handleStart := time.Now()
	var sp *obs.Span
	defer func() { r.lat.ObserveExemplar(time.Since(handleStart), sp.Finish()) }()
	rest := strings.TrimPrefix(req.URL.Path, "/svc/")
	org, tail, _ := strings.Cut(rest, "/")
	p, ok := r.cfg.Orgs[org]
	if !ok {
		http.NotFound(w, req)
		return
	}

	// Lock-free request path: one sharded-plane admission, one atomic
	// round-robin backend choice.
	sp = r.tracer.Begin(r.PrincipalName(p))
	d, det := r.adm.AdmitTraced(p, -1, 1)
	sp.StampAdmit(node.SpanVerdict(det.Outcome), det.Shard)
	var target string
	if d.Admitted {
		target = r.chooseBackend(d.Owner, "")
		sp.StampBackend()
	}

	if target == "" {
		if r.cfg.Proxy {
			// Single-round-trip variant: tell the client to retry.
			w.Header().Set("Retry-After", "0")
			http.Error(w, "over quota this window", http.StatusServiceUnavailable)
			return
		}
		// Self-redirect: the client retries the same URL (implicit queuing).
		w.Header().Set("Retry-After", "0")
		http.Redirect(w, req, r.URL()+req.URL.RequestURI(), http.StatusFound)
		return
	}
	if r.cfg.Proxy {
		r.proxy(w, req, d.Owner, target, tail, sp)
		return
	}
	http.Redirect(w, req, destURL(target, tail, req.URL.RawQuery), http.StatusFound)
}

// destURL joins a backend base URL with the request tail and query.
func destURL(target, tail, query string) string {
	dest := target + "/" + tail
	if query != "" {
		dest += "?" + query
	}
	return dest
}

// chooseBackend round-robins over the owner's backends, skipping ones the
// health checker holds down and the one named by skip (the backend a
// failover is escaping). Returns "" when no usable backend exists. Safe
// without the redirector mutex: the cursor is atomic and the checker locks
// internally.
func (r *Redirector) chooseBackend(owner agreement.Principal, skip string) string {
	backends := r.cfg.Backends[owner]
	if len(backends) == 0 {
		return ""
	}
	for range backends {
		idx := int(r.rr[owner].Add(1)-1) % len(backends)
		b := backends[idx]
		if b == skip {
			continue
		}
		if r.checker == nil || r.checker.Up(b) {
			return b
		}
	}
	return ""
}

// proxy relays the request to a backend of owner and the response to the
// client — one client round trip instead of two. A failed backend exchange
// is reported to the health checker and retried once against another
// backend of the same owner (bounded failover, not a retry storm).
func (r *Redirector) proxy(w http.ResponseWriter, req *http.Request, owner agreement.Principal, target, tail string, sp *obs.Span) {
	// Buffer the body so a failover attempt can replay it.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
	}
	var lastErr error
	for attempt := 0; attempt < 2 && target != ""; attempt++ {
		out, err := http.NewRequest(req.Method, destURL(target, tail, req.URL.RawQuery),
			bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		out.Header = req.Header.Clone()
		resp, err := r.client.Do(out)
		if err == nil {
			defer resp.Body.Close()
			sp.StampFirstByte()
			for k, vs := range resp.Header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
			return
		}
		lastErr = err
		if r.checker != nil {
			r.checker.ReportFailure(target, r.Elapsed())
		}
		// Failover is budgeted per window: a dying fleet must not turn
		// every admitted request into a second backend exchange.
		if r.retryTokens.Add(-1) < 0 {
			r.retryExhausted.Add(1)
			break
		}
		r.cfg.Engine.Logger().With("l7").WarnRate(r.warnFailover,
			"proxy exchange failed; failing over",
			"backend", target, "err", err)
		target = r.chooseBackend(owner, target)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no usable backend")
	}
	http.Error(w, lastErr.Error(), http.StatusBadGateway)
}

// RetryBudgetExhausted reports how many proxy failovers were suppressed
// because the window's retry budget was already spent.
func (r *Redirector) RetryBudgetExhausted() uint64 { return r.retryExhausted.Load() }

// Stats reports admission counters, folded from the plane's shards.
func (r *Redirector) Stats() (admitted, rejected int) {
	a, j := r.adm.Counts()
	return int(a), int(j)
}

// metrics writes the Layer-7 admission and failover counters to
// /v1/metrics; the runtime appends the shared series.
func (r *Redirector) metrics(w io.Writer) {
	admitted, rejected := r.Stats()
	obs.WriteMetric(w, "rsa_l7_admitted_total", "counter",
		"Requests admitted and redirected (or proxied) to a backend.", float64(admitted))
	obs.WriteMetric(w, "rsa_l7_rejected_total", "counter",
		"Requests self-redirected or rejected for lack of window credit.", float64(rejected))
	obs.WriteMetric(w, "rsa_l7_retry_budget_exhausted_total", "counter",
		"Proxy failovers suppressed because the window's retry budget was spent.",
		float64(r.retryExhausted.Load()))
}

// statsPayload is the JSON shape served at /stats.
type statsPayload struct {
	ID           int    `json:"id"`
	Mode         string `json:"mode"`
	WindowMS     int64  `json:"window_ms"`
	Admitted     int    `json:"admitted"`
	Rejected     int    `json:"rejected"`
	Windows      int    `json:"windows"`
	Conservative int    `json:"conservative_windows"`
	HasGlobal    bool   `json:"has_global"`
}

// handleStats serves operational counters for monitoring.
func (r *Redirector) handleStats(w http.ResponseWriter, req *http.Request) {
	admitted, rejected := r.Stats()
	r.mu.Lock()
	p := statsPayload{
		ID:           r.cfg.ID,
		Mode:         r.cfg.Engine.Mode().String(),
		WindowMS:     r.cfg.Engine.Window().Milliseconds(),
		Admitted:     admitted,
		Rejected:     rejected,
		Windows:      r.red.Windows,
		Conservative: r.red.Conservative,
		HasGlobal:    r.red.HasGlobal(),
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
