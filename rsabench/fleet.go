package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/l4"
	"repro/internal/l7"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/treenet"
)

// bootOpts are the per-boot knobs: span tracing (traced run only), the
// window-ring depth, and where durable stores go.
type bootOpts struct {
	trace      *obs.TraceConfig
	traceDepth int
	storeDir   string
}

// fleet is one booted workload: backends, redirectors (one engine each, as
// separate processes would run), the combining tree over loopback TCP, and
// the durable stores of persisting workloads.
type fleet struct {
	w      *workload
	start  time.Time   // boot start
	bootAt []time.Time // just before each redirector was constructed

	engines []*core.Engine
	stores  []*persist.Store
	names   []string // principal index → name

	// allowed[u][k]: user u may be served by owner k's backends (own
	// backends, or an owner it holds a direct or transitive agreement with).
	allowed [][]bool
	// backendOwner maps a backend's listen address to its owner index.
	backendOwner map[string]int

	nodes []node // every redirector, either layer
	l7r   []*l7.Redirector
	l7b   []*l7.Backend
	urls  [][]string // l7: [redirector][user] request URL prefix

	l4r   []*l4.Redirector
	l4b   []*l4.Backend
	addrs [][]string // l4: [redirector][user] service address
}

// node is the surface the Layer-7 and Layer-4 redirectors share; the
// benchmark reads both layers through it.
type node interface {
	Observer() *obs.Observer
	Tracer() *obs.Tracer
	ObsHandler() *obs.Handler
	TreeStats() treenet.Stats
	TreeAddr() string
	SetTreePeer(id combining.NodeID, addr string)
	Close() error
}

// boot starts the workload's fleet. On error everything already started is
// shut down.
func boot(w *workload, o bootOpts) (f *fleet, err error) {
	f = &fleet{w: w, start: time.Now(), backendOwner: make(map[string]int)}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()

	sys, ps, err := w.system()
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		f.names = append(f.names, sys.Name(p))
	}
	acc, err := sys.SystemAccess()
	if err != nil {
		return nil, err
	}
	for _, u := range w.users {
		row := make([]bool, len(ps))
		for k := range ps {
			row[k] = k == u || acc.MI[k][u]+acc.OI[k][u] > 0
		}
		if w.mode == core.Provider {
			row[w.provider] = true
		}
		f.allowed = append(f.allowed, row)
	}

	backends := make(map[agreement.Principal][]string)
	for _, b := range w.backends {
		var addr string
		switch w.layer {
		case "l7":
			be, berr := l7.NewBackend("127.0.0.1:0", b.rate)
			if berr != nil {
				return nil, berr
			}
			f.l7b = append(f.l7b, be)
			addr = be.URL()
		default:
			be, berr := l4.NewBackend("127.0.0.1:0", b.rate)
			if berr != nil {
				return nil, berr
			}
			f.l4b = append(f.l4b, be)
			addr = be.Addr()
		}
		f.backendOwner[strings.TrimPrefix(addr, "http://")] = b.owner
		backends[ps[b.owner]] = append(backends[ps[b.owner]], addr)
	}

	ids := make([]combining.NodeID, w.redirectors)
	for i := range ids {
		ids[i] = combining.NodeID(i)
	}
	topo := combining.BuildTree(ids, w.fanout)
	for i := 0; i < w.redirectors; i++ {
		eng, eps, eerr := w.engine()
		if eerr != nil {
			return nil, eerr
		}
		f.engines = append(f.engines, eng)
		var store *persist.Store
		if w.persist {
			if store, err = persist.Open(filepath.Join(o.storeDir, fmt.Sprintf("store-%d", i))); err != nil {
				return nil, err
			}
			f.stores = append(f.stores, store)
		}
		var tree *treenet.Spec
		if w.redirectors > 1 {
			id := combining.NodeID(i)
			tree = &treenet.Spec{
				NodeID: id, Parent: topo.Parent[id], Children: topo.Children[id],
				ListenAddr: "127.0.0.1:0", Fanout: w.fanout,
			}
		}
		f.bootAt = append(f.bootAt, time.Now())
		switch w.layer {
		case "l7":
			orgs := make(map[string]agreement.Principal)
			var urls []string
			for _, u := range w.users {
				org := strings.ToLower(f.names[u])
				orgs[org] = eps[u]
				urls = append(urls, "/svc/"+org+"/bench?size=")
			}
			r, rerr := l7.NewRedirector(l7.RedirectorConfig{
				Engine: eng, ID: i, Addr: "127.0.0.1:0", Proxy: true,
				Orgs: orgs, Backends: backends, Tree: tree,
				TraceDepth: o.traceDepth, Trace: o.trace, Persist: store,
			})
			if rerr != nil {
				return nil, rerr
			}
			f.l7r = append(f.l7r, r)
			f.nodes = append(f.nodes, r)
			for j := range urls {
				urls[j] = r.URL() + urls[j]
			}
			f.urls = append(f.urls, urls)
		default:
			var svcs []l4.ServiceSpec
			for _, u := range w.users {
				svcs = append(svcs, l4.ServiceSpec{Principal: eps[u], Addr: "127.0.0.1:0"})
			}
			r, rerr := l4.NewRedirector(l4.Config{
				Engine: eng, ID: i, Services: svcs, Backends: backends, Tree: tree,
				MaxPending: w.maxPending,
				TraceDepth: o.traceDepth, Trace: o.trace, Persist: store,
			})
			if rerr != nil {
				return nil, rerr
			}
			f.l4r = append(f.l4r, r)
			f.nodes = append(f.nodes, r)
			var addrs []string
			for _, u := range w.users {
				addrs = append(addrs, r.Addr(eps[u]))
			}
			f.addrs = append(f.addrs, addrs)
		}
	}
	// Tree ports are ephemeral, so peers are wired once all are known.
	for i, ni := range f.nodes {
		for j, nj := range f.nodes {
			if i != j {
				ni.SetTreePeer(combining.NodeID(j), nj.TreeAddr())
			}
		}
	}
	return f, nil
}

// awaitGlobal blocks until every redirector has opened a window holding a
// global view and returns the time from boot start until the last of them
// did. Opening times come from the window records (redirector-relative
// AtNanos), not from polling, so the poll interval does not quantize them.
func (f *fleet) awaitGlobal(timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	opened := make([]time.Duration, len(f.bootAt))
	for {
		done := true
		for i := range opened {
			if opened[i] > 0 {
				continue
			}
			ring := f.nodes[i].Observer().Ring()
			for _, rec := range ring.Snapshot(int(ring.Len())) {
				if rec.HaveGlobal {
					opened[i] = f.bootAt[i].Add(time.Duration(rec.AtNanos)).Sub(f.start)
					break
				}
			}
			if opened[i] == 0 {
				done = false
			}
		}
		if done {
			var last time.Duration
			for _, d := range opened {
				last = max(last, d)
			}
			return last, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s: redirectors without a global view after %v", f.w.name, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		_ = n.Close()
	}
	for _, b := range f.l7b {
		_ = b.Close()
	}
	for _, b := range f.l4b {
		_ = b.Close()
	}
	for _, s := range f.stores {
		_ = s.Close()
	}
}

// counters is a fleet-wide snapshot of every counter the benchmark reads,
// summed over redirectors (or backends).
type counters struct {
	use usage

	windows, underFloor, overCeil, mixedVersion int64 // obs.Auditor
	cacheHits, cacheMisses, solves              int64 // Engine.Stats
	sendErrors, queueDrops, reconnects          int   // TreeStats

	// rsa_admission_* series scraped from each ObsHandler.
	admits, rejects, steals float64

	admitted, rejected                  int // l7 Stats
	forwarded, parked, dropped, expired int // l4 Stats
	dialFailures, reparked              int // l4 DialStats
	backendServed                       int64
	ownerServed                         []int64 // backend Served() by owner index
	// Spans lost by the tracers: pool exhaustion plus ring overwrites.
	spansDropped uint64
}

func (f *fleet) snapshot() counters {
	c := counters{use: readUsage(), ownerServed: make([]int64, len(f.names))}
	for i, n := range f.nodes {
		aud := n.Observer().Auditor()
		c.windows += aud.Windows()
		c.mixedVersion += aud.MixedVersion()
		for p := range aud.Names() {
			c.underFloor += aud.UnderMC(p)
			c.overCeil += aud.OverUB(p)
		}
		st := f.engines[i].Stats()
		c.cacheHits += st.CacheHits()
		c.cacheMisses += st.CacheMisses()
		c.solves += st.Solves()
		ts := n.TreeStats()
		c.sendErrors += ts.SendErrors
		c.queueDrops += ts.QueueDrops
		c.reconnects += ts.Reconnects
		m := scrape(n.ObsHandler())
		c.admits += m["rsa_admission_admits_total"]
		c.rejects += m["rsa_admission_rejects_total"]
		c.steals += m["rsa_admission_steals_total"]
		if tr := n.Tracer(); tr != nil {
			_, kept, dropped := tr.Counts()
			c.spansDropped += dropped
			if depth := uint64(tr.Ring().Depth()); kept > depth {
				c.spansDropped += kept - depth
			}
		}
	}
	for _, r := range f.l7r {
		a, j := r.Stats()
		c.admitted += a
		c.rejected += j
	}
	for _, r := range f.l4r {
		fw, pk, dr, ex := r.Stats()
		c.forwarded += fw
		c.parked += pk
		c.dropped += dr
		c.expired += ex
		df, rp := r.DialStats()
		c.dialFailures += df
		c.reparked += rp
	}
	for i, b := range f.l7b {
		c.ownerServed[f.w.backends[i].owner] += b.Served()
	}
	for i, b := range f.l4b {
		c.ownerServed[f.w.backends[i].owner] += b.Served()
	}
	for _, n := range c.ownerServed {
		c.backendServed += n
	}
	return c
}

// scrape reads a redirector's /v1/metrics exposition in-process and returns
// its unlabeled series.
func scrape(h *obs.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// outcome classifies one client exchange.
type outcome uint8

const (
	served   outcome = iota + 1
	rejected         // L7 503, or an L4 connection closed before any reply
	errored          // transport error, timeout or unexpected status
)

// exchange is one worker's client: it owns one keep-alive connection per
// redirector at Layer 7, and one connection per request at Layer 4.
type exchange struct {
	f      *fleet
	client *http.Client
	buf    []byte
	rd     *bufio.Reader
}

const exchangeTimeout = 10 * time.Second

func (f *fleet) newExchange() *exchange {
	e := &exchange{f: f, buf: make([]byte, 8<<10), rd: bufio.NewReaderSize(nil, 256)}
	if f.w.layer == "l7" {
		e.client = &http.Client{
			Timeout: exchangeTimeout,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return e
}

func (e *exchange) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

// do performs one request. owner is the index of the principal whose
// backend served it (-1 when unknown); wrong describes a served response
// that failed an output check.
func (e *exchange) do(r *request, seq int) (out outcome, owner int, wrong string) {
	if e.f.w.layer == "l7" {
		return e.doL7(r)
	}
	return e.doL4(r, seq)
}

func (e *exchange) doL7(r *request) (outcome, int, string) {
	resp, err := e.client.Get(e.f.urls[r.redirector][r.user] + strconv.Itoa(r.size))
	if err != nil {
		return errored, -1, ""
	}
	n, err := io.CopyBuffer(io.Discard, resp.Body, e.buf)
	resp.Body.Close()
	if err != nil {
		return errored, -1, ""
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return rejected, -1, ""
	default:
		return errored, -1, ""
	}
	owner, ok := e.f.backendOwner[resp.Header.Get("X-Backend")]
	switch {
	case !ok:
		return served, -1, fmt.Sprintf("response from unknown backend %q", resp.Header.Get("X-Backend"))
	case !e.f.allowed[r.user][owner]:
		return served, owner, fmt.Sprintf("%s served by %s's backend without an agreement",
			e.f.names[e.f.w.users[r.user]], e.f.names[owner])
	case n != int64(r.size):
		return served, owner, fmt.Sprintf("body of %d bytes, requested %d", n, r.size)
	}
	return served, owner, ""
}

func (e *exchange) doL4(r *request, seq int) (outcome, int, string) {
	conn, err := net.DialTimeout("tcp", e.f.addrs[r.redirector][r.user], 2*time.Second)
	if err != nil {
		return errored, -1, ""
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(exchangeTimeout))
	payload := "rsabench-" + strconv.Itoa(seq)
	// A connection the redirector drops or expires is closed unanswered:
	// EOF, or a reset when the unread request line was still buffered
	// (which can already fail the write).
	closed := func(err error) bool {
		return err == io.EOF || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
	}
	if _, err := io.WriteString(conn, payload+"\n"); err != nil {
		if closed(err) {
			return rejected, -1, ""
		}
		return errored, -1, ""
	}
	e.rd.Reset(conn)
	reply, err := e.rd.ReadString('\n')
	switch {
	case reply == "" && closed(err):
		return rejected, -1, ""
	case err != nil:
		return errored, -1, ""
	case reply != "OK "+payload+"\n":
		return served, -1, fmt.Sprintf("reply %q to %q", reply, payload)
	}
	return served, -1, ""
}

// removeAll deletes a scratch directory, reporting failures on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "rsabench:", err)
	}
}
