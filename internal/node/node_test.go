package node

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/treenet"
)

const window = 20 * time.Millisecond

// community returns a two-principal community engine (B lends A half its
// capacity) and the principals.
func community(t *testing.T) (*core.Engine, *agreement.System, agreement.Principal, agreement.Principal) {
	t.Helper()
	s := agreement.New()
	a := s.MustAddPrincipal("A", 320)
	b := s.MustAddPrincipal("B", 320)
	s.MustSetAgreement(b, a, 0.5, 0.5)
	eng, err := core.NewEngine(core.Config{Mode: core.Community, System: s, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, a, b
}

func openStore(t *testing.T) *persist.Store {
	t.Helper()
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// get serves one request from the runtime's admin handler.
func get(t *testing.T, rt *Runtime, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ObsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestCloseStopsWindows pins the Close lifecycle: the window loop runs the
// boundary, appends one durable record per window and calls AfterWindow;
// once Close returns no window starts, nothing more is appended, OnClose
// ran exactly once, and the store was checkpointed.
func TestCloseStopsWindows(t *testing.T) {
	eng, _, _, _ := community(t)
	st := openStore(t)
	var after, closes atomic.Int64
	rt, err := New(Config{
		Engine:      eng,
		Persist:     st,
		Metrics:     func(w io.Writer) { io.WriteString(w, "front_end_series 1\n") },
		AfterWindow: func(err error) { after.Add(1) },
		OnClose:     func() error { closes.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	waitFor(t, "durable window records", func() bool {
		ws, ok := st.LastWindow()
		return ok && ws.WindowSeq >= 5 && after.Load() >= 5
	})
	if body := get(t, rt, "/v1/metrics"); !strings.Contains(body, "front_end_series 1") ||
		!strings.Contains(body, "rsa_admission_admits_total") {
		t.Fatalf("metrics lack the front-end or shared series:\n%.400s", body)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	mu, red := rt.Boundary()
	mu.Lock()
	windows := red.Windows
	mu.Unlock()
	last, _ := st.LastWindow()
	calls := after.Load()
	time.Sleep(5 * window)
	mu.Lock()
	if red.Windows != windows {
		t.Fatalf("window started after Close: %d → %d", windows, red.Windows)
	}
	mu.Unlock()
	if got, _ := st.LastWindow(); got.WindowSeq != last.WindowSeq || last.WindowSeq != windows {
		t.Fatalf("durable record seq %d after Close (at Close %d, windows %d)", got.WindowSeq, last.WindowSeq, windows)
	}
	if after.Load() != calls {
		t.Fatal("AfterWindow ran after Close returned")
	}
	// The caller may now close the store: no late boundary can append.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if closes.Load() != 1 {
		t.Fatalf("OnClose ran %d times, want 1", closes.Load())
	}
}

// TestCloseReportsFirstError pins that Close returns the front-end's
// shutdown error, and returns it again on later calls.
func TestCloseReportsFirstError(t *testing.T) {
	eng, _, _, _ := community(t)
	boom := errors.New("front-end close failed")
	rt, err := New(Config{Engine: eng, OnClose: func() error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
	if err := rt.Close(); !errors.Is(err, boom) {
		t.Fatalf("second Close = %v, want %v", err, boom)
	}
}

// TestAfterWindowOutsideLock pins the hook contract: AfterWindow runs
// after the boundary, outside the boundary lock, and receives the
// boundary's StartWindow error (nil on a healthy engine).
func TestAfterWindowOutsideLock(t *testing.T) {
	eng, _, _, _ := community(t)
	var rt *Runtime
	seen := make(chan error, 1)
	rt, err := New(Config{Engine: eng, AfterWindow: func(err error) {
		mu, _ := rt.Boundary()
		if !mu.TryLock() {
			t.Error("AfterWindow runs under the boundary lock")
			return
		}
		mu.Unlock()
		select {
		case seen <- err:
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Start()
	select {
	case err := <-seen:
		if err != nil {
			t.Fatalf("healthy boundary reported %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AfterWindow never ran")
	}
}

// pair boots a root and a child runtime joined by a flat tree over
// loopback TCP.
func pair(t *testing.T, child Config) (root, leaf *Runtime) {
	t.Helper()
	eng, _, _, _ := community(t)
	var err error
	root, err = New(Config{Engine: eng, Tree: &treenet.Spec{
		NodeID: 0, Parent: -1, Children: []combining.NodeID{1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	if child.Engine == nil {
		child.Engine, _, _, _ = community(t)
	}
	child.ID = 1
	child.Tree = &treenet.Spec{NodeID: 1, Parent: 0}
	leaf, err = New(child)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaf.Close() })
	root.SetTreePeer(1, leaf.TreeAddr())
	leaf.SetTreePeer(0, root.TreeAddr())
	return root, leaf
}

// TestTreeWiring pins the combining-tree path: the child's reports reach
// the root, the root's broadcasts give the child a global view, and the
// topology, tree counters and transport series surface on the admin
// handler.
func TestTreeWiring(t *testing.T) {
	root, leaf := pair(t, Config{})
	root.Start()
	leaf.Start()
	waitFor(t, "a global-bearing child window", func() bool {
		for _, rec := range leaf.Observer().Ring().Snapshot(4) {
			if rec.HaveGlobal && rec.TreeMsgsIn > 0 {
				return true
			}
		}
		return false
	})
	if leaf.TreeStats().Dials == 0 || root.TreeStats().Dials == 0 {
		t.Fatalf("tree dials: root %+v child %+v", root.TreeStats(), leaf.TreeStats())
	}
	var topo obs.TopologyInfo
	if err := json.Unmarshal([]byte(get(t, leaf, "/v1/topology")), &topo); err != nil {
		t.Fatal(err)
	}
	if topo.Self != 1 || topo.Root != 0 || len(topo.Nodes) != 2 || len(topo.Components) != 1 ||
		strings.Join(topo.Components[0].Principals, ",") != "A,B" {
		t.Fatalf("child topology = %+v", topo)
	}
	if body := get(t, root, "/v1/metrics"); !strings.Contains(body, "rsa_treenet_dials_total") {
		t.Fatal("root metrics lack the tree transport series")
	}
}

// TestRestoreAndRejoin pins boot recovery: a runtime handed a store holding
// a window record and a newer agreement set restores its window position,
// commits the recovered set at gate 0, and announces a rejoin carrying its
// durable epoch to its parent before its first window.
func TestRestoreAndRejoin(t *testing.T) {
	eng, s, a, b := community(t)
	st := openStore(t)
	prev := s.Clone()
	if err := prev.SetAgreement(b, a, 0.25, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSet(prev.Snapshot(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendWindow(persist.WindowState{
		WindowSeq: 42, Epoch: 42, SetVersion: 3, Gate: 40,
		Estimate: []float64{7, 5}, Credit: [][]float64{{3, 0}, {1, 2}},
	}); err != nil {
		t.Fatal(err)
	}

	rejoins := make(chan combining.Rejoin, 4)
	parent, err := treenet.Listen(0, "127.0.0.1:0", func(tree int, from combining.NodeID, msg interface{}) {
		if m, ok := msg.(combining.Rejoin); ok {
			rejoins <- m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	rt, err := New(Config{Engine: eng, ID: 1, Persist: st, Tree: &treenet.Spec{
		NodeID: 1, Parent: 0, Peers: map[combining.NodeID]string{0: parent.Addr()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if got := eng.LastSetVersion(); got != 3 {
		t.Fatalf("recovered set version = %d, want 3", got)
	}
	_, red := rt.Boundary()
	if red.Windows != 42 {
		t.Fatalf("window sequence = %d, want 42 (restored)", red.Windows)
	}
	select {
	case m := <-rejoins:
		if m.Epoch != 42 || m.AckVersion != 3 {
			t.Fatalf("rejoin = %+v, want epoch 42 ack 3", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no rejoin announced to the parent")
	}
	rt.Start()
	waitFor(t, "a record past the restored sequence", func() bool {
		ws, ok := st.LastWindow()
		return ok && ws.WindowSeq > 42
	})
}

// TestControlPlanePublishes pins the control-plane wiring on a tree root:
// an accepted mutation is saved to the store before it is distributed and
// rides the root's broadcasts to the child, whose engine stages it.
func TestControlPlanePublishes(t *testing.T) {
	st := openStore(t)
	eng, _, _, _ := community(t)
	root, err := New(Config{Engine: eng, Ctrl: true, CtrlLead: 1, Persist: st, Tree: &treenet.Spec{
		NodeID: 0, Parent: -1, Children: []combining.NodeID{1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	childEng, _, _, _ := community(t)
	leaf, err := New(Config{Engine: childEng, ID: 1, Tree: &treenet.Spec{NodeID: 1, Parent: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	root.SetTreePeer(1, leaf.TreeAddr())
	leaf.SetTreePeer(0, root.TreeAddr())
	root.Start()
	leaf.Start()

	v, err := root.Plane().SetAgreement("B", "A", 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if set, err := st.LoadNewestSet(); err != nil || set == nil || set.Version != v {
		t.Fatalf("newest durable set = %+v, %v; want version %d", set, err, v)
	}
	waitFor(t, "the child to learn the new set", func() bool { return childEng.LastSetVersion() == v })
	if _, err := root.Plane().GrantLease("B", "A", 10, 0); err != nil {
		t.Fatal(err)
	}
	if lt, err := st.LoadNewestLeases(); err != nil || lt == nil || len(lt.Leases) != 1 {
		t.Fatalf("durable lease table = %+v, %v", lt, err)
	}
}

// TestControlPlaneWithoutTree pins that a single node's control plane
// saves accepted sets and resumes the lease table from the store.
func TestControlPlaneWithoutTree(t *testing.T) {
	st := openStore(t)
	eng, _, _, _ := community(t)
	rt, err := New(Config{Engine: eng, Ctrl: true, Persist: st})
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Plane().SetAgreement("B", "A", 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if set, err := st.LoadNewestSet(); err != nil || set == nil || set.Version != v {
		t.Fatalf("newest durable set = %+v, %v; want version %d", set, err, v)
	}
	if !strings.Contains(get(t, rt, "/v1/agreements"), `"version"`) {
		t.Fatal("control plane not mounted on the admin handler")
	}
	rt.Close()
}

// TestObservabilityWiring pins tracing, the flight recorder and the health
// plane: each is built from its config and reachable through the
// accessors front-ends promote.
func TestObservabilityWiring(t *testing.T) {
	eng, _, a, b := community(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	target := ln.Addr().String()
	rt, err := New(Config{
		Engine:   eng,
		Backends: map[agreement.Principal][]string{b: {target}},
		Trace:    &obs.TraceConfig{SampleEvery: 1},
		Flight:   &obs.FlightConfig{},
		Health:   &health.Options{Interval: window, Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Tracer() == nil || rt.Flight() == nil || rt.Checker() == nil || rt.Admission() == nil {
		t.Fatal("configured tracer, flight recorder, checker or admission plane missing")
	}
	if rt.Plane() != nil || rt.TreeAddr() != "" || rt.TreeStats() != (treenet.Stats{}) {
		t.Fatal("unconfigured control plane or tree present")
	}
	rt.SetTreePeer(3, "127.0.0.1:1") // no tree: a no-op
	if err := rt.BindNode(7, target); err != nil {
		t.Fatal(err)
	}
	if got, ok := rt.NodeTarget(7); !ok || got != target {
		t.Fatalf("NodeTarget(7) = %q, %v", got, ok)
	}
	if rt.PrincipalName(a) != "A" || rt.PrincipalName(agreement.Principal(9)) != "" {
		t.Fatal("PrincipalName mapping")
	}
	if rt.Elapsed() <= 0 {
		t.Fatal("time base not running")
	}

	bare, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := bare.BindNode(7, target); err == nil {
		t.Fatal("BindNode without health checking succeeded")
	}
	if _, ok := bare.NodeTarget(7); ok {
		t.Fatal("NodeTarget without health checking resolved")
	}
	if bare.Tracer() != nil || bare.Flight() != nil || bare.Checker() != nil {
		t.Fatal("unconfigured tracer, flight recorder or checker present")
	}
}

// TestWindowRecordFormat pins the record format both the runtime and the
// simulator persist: provider mode carries per-owner credit totals,
// community mode the full credit matrix, and both the estimate and the
// rollout position.
func TestWindowRecordFormat(t *testing.T) {
	eng, _, _, _ := community(t)
	red := eng.NewRedirector(0)
	var rec WindowRecord
	ws := rec.Build(eng, red, 5, 2, 4)
	if ws.Epoch != 5 || ws.SetVersion != 2 || ws.Gate != 4 || ws.WindowSeq != red.Windows {
		t.Fatalf("rollout position = %+v", ws)
	}
	if len(ws.Credit) != 2 || ws.CreditTotal != nil || len(ws.Estimate) != 2 {
		t.Fatalf("community record = %+v", ws)
	}

	s := agreement.New()
	sp := s.MustAddPrincipal("S", 100)
	s.MustAddPrincipal("C", 0)
	peng, err := core.NewEngine(core.Config{Mode: core.Provider, System: s, ProviderPrincipal: sp, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	var prec WindowRecord
	pws := prec.Build(peng, peng.NewRedirector(0), 0, 0, 0)
	if pws.Credit != nil || len(pws.CreditTotal) != 2 {
		t.Fatalf("provider record = %+v", pws)
	}
}

// TestSpanVerdict pins the admission-outcome → span-verdict mapping.
func TestSpanVerdict(t *testing.T) {
	for out, want := range map[admission.Outcome]obs.Verdict{
		admission.OutcomeAdmit:  obs.VerdictAdmit,
		admission.OutcomeSteal:  obs.VerdictSteal,
		admission.OutcomeDry:    obs.VerdictDry,
		admission.OutcomeReject: obs.VerdictReject,
	} {
		if got := SpanVerdict(out); got != want {
			t.Errorf("SpanVerdict(%v) = %v, want %v", out, got, want)
		}
	}
}

// TestConcurrentCloseAndScrape closes a tree node while admin scrapes,
// window boundaries and tree traffic are in flight; the race detector
// checks the lifecycle.
func TestConcurrentCloseAndScrape(t *testing.T) {
	root, leaf := pair(t, Config{Persist: openStore(t)})
	root.Start()
	leaf.Start()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, path := range []string{"/v1/metrics", "/v1/topology"} {
					leaf.ObsHandler().ServeHTTP(httptest.NewRecorder(),
						httptest.NewRequest(http.MethodGet, path, nil))
				}
			}
		}()
	}
	waitFor(t, "tree traffic at the child", func() bool { return leaf.TreeStats().Dials > 0 })
	waitFor(t, "child windows", func() bool { return leaf.Observer().Auditor().Windows() >= 3 })
	err := leaf.Close()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
