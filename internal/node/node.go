// Package node is the enforcement-node runtime shared by the Layer-7
// redirector (internal/l7) and the Layer-4 switch (internal/l4). The paper
// builds both enforcement points of §4 around one scheduler — the same
// window LP, the same combining-tree coordination (§3.2), the same
// conservative MC/R fallback — and only the accept/admit/forward step
// differs. This package is that shared scheduler side:
//
//   - the core.Redirector, the sharded admission.Plane and the boundary
//     lock that guards them;
//   - the treenet transport and combining.Forest, including the handler
//     that stages (and durably saves) agreement sets the tree delivers;
//   - boot restore from a persist.Store and the tree rejoin announcement;
//   - the dynamic agreement control plane (internal/ctrlplane);
//   - window observer, health checker, request tracer, flight recorder and
//     the obs.Handler admin surface;
//   - the window loop: estimate → tree tick → rollout view → admission
//     window → durable record → tracer window.
//
// A front-end owns its listeners and request path, embeds a *Runtime, and
// hands it three hooks (Config.Metrics, Config.AfterWindow,
// Config.OnClose). It calls Start once its request path is ready.
package node

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/budget"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/topology"
	"repro/internal/treenet"
)

// persistCheckpointEvery is how many durable window appends accumulate
// before the record log is compacted to its newest record.
const persistCheckpointEvery = 256

// Config parameterizes a runtime. The scheduler-side fields carry the
// same-named flat fields of l4.Config and l7.RedirectorConfig, which
// document them; the hooks are the front-end's whole say in the runtime.
type Config struct {
	// Engine is the scheduling engine; ID distinguishes its redirectors.
	Engine *core.Engine
	ID     int
	// Backends maps owner principals to the targets the health checker
	// probes (unused without Health).
	Backends map[agreement.Principal][]string
	// Tree, if non-nil, joins a combining tree of redirector processes;
	// without one the node feeds its own estimate back as the global view.
	Tree *treenet.Spec
	// TraceDepth, Trace and Flight configure the window ring, request
	// spans and the SLO flight recorder (Flight requires Trace).
	TraceDepth int
	Trace      *obs.TraceConfig
	Flight     *obs.FlightConfig
	// Health, if non-nil, enables active backend health checking and
	// capacity re-interpretation.
	Health *health.Options
	// Ctrl attaches the dynamic agreement control plane, gated CtrlLead
	// tree epochs ahead.
	Ctrl     bool
	CtrlLead int
	// AdmissionShards sets the admission plane's credit shard count.
	AdmissionShards int
	// Persist, if non-nil, arms boot restore and the per-window durable
	// record. The caller owns the store; Close checkpoints but does not
	// close it.
	Persist *persist.Store

	// Metrics appends the front-end's own series to /v1/metrics, ahead of
	// the shared admission, health, tree and hop series; Histograms are its
	// latency distributions.
	Metrics    func(w io.Writer)
	Histograms []obs.NamedHistogram
	// AfterWindow runs on the window-loop goroutine after every boundary,
	// outside the boundary lock, with the admission plane's StartWindow
	// error. Close waits for it to return.
	AfterWindow func(err error)
	// OnClose holds the front-end's shutdown steps. Close runs it once the
	// window loop has stopped, before the tree transport closes and the
	// store is checkpointed.
	OnClose func() error
}

// Runtime is one enforcement node's scheduler side.
type Runtime struct {
	cfg   Config
	start time.Time
	names []string // principal index → name, for span tags

	// mu guards the window-boundary state only (core redirector, combining
	// tree, estimate buffer, durable-record scratch). Request paths never
	// take it: admission goes through the sharded plane.
	mu     sync.Mutex
	red    *core.Redirector
	adm    *admission.Plane
	tree   *combining.Forest
	hop    *combining.HopMetrics
	estBuf []float64
	rec    WindowRecord
	// appends counts durable window records, for the checkpoint cadence.
	appends int

	transport *treenet.Transport
	reparent  treenet.Detector
	topoPlane func() *topology.Plane // nil on a flat layout

	obsv    *obs.Observer
	handler *obs.Handler
	plane   *ctrlplane.Plane
	tracer  *obs.Tracer
	flight  *obs.FlightRecorder
	checker *health.Checker
	reint   *health.Reinterpreter

	ticker    *time.Ticker
	done      chan struct{}
	loop      sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New builds a runtime: admission plane, tree wiring, boot restore,
// control plane and observability. The window loop does not run until
// Start.
func New(cfg Config) (*Runtime, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("node: nil engine")
	}
	eng := cfg.Engine
	rt := &Runtime{
		cfg:   cfg,
		start: time.Now(),
		names: eng.PrincipalNames(),
		red:   eng.NewRedirector(cfg.ID),
		done:  make(chan struct{}),
	}
	var err error
	rt.adm, err = admission.New(admission.Config{
		Redirector: rt.red, Engine: eng, Shards: cfg.AdmissionShards,
	})
	// The tree transport accepts as soon as it listens: inbound frames wait
	// on rt.mu until the forest is built and the durable state restored
	// (and are dropped if construction fails).
	rt.mu.Lock()
	if err == nil && cfg.Tree != nil {
		err = rt.joinTree()
	}
	var resumeSet *agreement.Set
	if err == nil {
		resumeSet, err = rt.restore()
	}
	rt.mu.Unlock()
	if err == nil && cfg.Ctrl {
		err = rt.attachControl(resumeSet)
	}
	if err != nil {
		if rt.transport != nil {
			rt.transport.Close()
		}
		return nil, err
	}
	rt.observe()
	return rt, nil
}

// joinTree opens the tree transport and builds the combining forest. Under
// the component sharding policy each disjoint agreement component runs its
// own tree (independent epochs) over the shared plane; otherwise one tree
// carries the full vector.
func (rt *Runtime) joinTree() error {
	spec, eng := rt.cfg.Tree, rt.cfg.Engine
	wiring, err := spec.Resolve()
	if err != nil {
		return err
	}
	addr := spec.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if rt.transport, err = treenet.Listen(spec.NodeID, addr, rt.onTreeMessage); err != nil {
		return err
	}
	for id, peerAddr := range spec.Peers {
		rt.transport.SetPeer(id, peerAddr)
	}
	rt.reparent, rt.topoPlane = wiring.Detector, wiring.Plane
	var comps [][]int
	if top := spec.Topology; top != nil {
		if top.Sharding == topology.ShardComponent {
			for _, c := range eng.System().Components() {
				ms := make([]int, len(c))
				for i, p := range c {
					ms[i] = int(p)
				}
				comps = append(comps, ms)
			}
		}
		if d := top.Normalize().Delta; d.Enabled() {
			rt.transport.EnableDelta(d.Threshold, d.ResyncEvery)
		}
	}
	rt.hop = combining.NewHopMetrics()
	tree, err := combining.NewForest(combining.ForestConfig{
		ID: spec.NodeID, Parent: wiring.Parent, Children: wiring.Children,
		NumPrincipals: eng.NumPrincipals(), Components: comps,
		Send: rt.transport.TreeSend, Now: rt.Elapsed, Hop: rt.hop,
	})
	if err != nil {
		return err
	}
	rt.tree = tree
	rt.transport.SetWidth(tree.Width)
	// Configuration updates arriving from the parent stage a new scheduling
	// generation behind the sender's epoch gate; the window loop swaps once
	// this node's epoch crosses it. Runs on the transport goroutine under
	// rt.mu (OnMessage). Every delivered set becomes durable before the gate
	// can arrive: a crash after this point recovers the newest entitlements
	// instead of rejoining blind.
	tree.SetConfigHandler(func(cu *combining.ConfigUpdate) {
		set, derr := agreement.DecodeSet(cu.Payload)
		if derr != nil {
			eng.Logger().Error("bad config payload", "version", cu.Version, "err", derr)
			return
		}
		if _, serr := eng.StageSet(set, cu.GateEpoch); serr != nil {
			eng.Logger().Error("stage agreement set", "version", cu.Version, "err", serr)
			return
		}
		rt.saveSet(set)
	})
	return nil
}

// saveSet makes an agreement set durable; a no-op without a store. Errors
// are logged, never fatal.
func (rt *Runtime) saveSet(set *agreement.Set) {
	if st := rt.cfg.Persist; st != nil {
		if err := st.SaveSet(set); err != nil {
			rt.cfg.Engine.Logger().Error("persist agreement set", "version", set.Version, "err", err)
		}
	}
}

// restore is crash recovery: it restores the durable window position,
// carried credit, demand estimate and newest agreement set before the
// first window or tree tick, then announces a rejoin so the parent
// unblocks this node's (rewound) epoch and streams back the current global
// and configuration. It returns the recovered set (nil when none).
func (rt *Runtime) restore() (*agreement.Set, error) {
	st, eng := rt.cfg.Persist, rt.cfg.Engine
	if st == nil {
		return nil, nil
	}
	set, err := st.LoadNewestSet()
	if err != nil {
		return nil, fmt.Errorf("node: recover agreement set: %w", err)
	}
	// Gate 0: a recovered set the fleet already converged on commits
	// locally at the next window boundary, no quorum round needed.
	if set != nil {
		if _, serr := eng.StageSet(set, 0); serr != nil {
			eng.Logger().Error("restage recovered set", "version", set.Version, "err", serr)
			set = nil
		}
	}
	ws, ok := st.LastWindow()
	if !ok {
		return set, nil
	}
	rt.red.RestoreState(ws.WindowSeq, ws.Estimate, ws.Credit, ws.CreditTotal)
	rt.red.SetRollout(ws.Epoch, ws.SetVersion)
	if rt.tree != nil {
		var cu *combining.ConfigUpdate
		if set != nil {
			if data, perr := set.Encode(); perr == nil {
				cu = &combining.ConfigUpdate{Version: set.Version, GateEpoch: ws.Gate, Payload: data}
			}
		}
		rt.tree.Reset(ws.Epoch, cu)
		rt.tree.AnnounceRejoin()
	}
	return set, nil
}

// attachControl builds the dynamic agreement control plane. A restarted
// control-plane host resumes version numbering from the recovered set, so
// its next mutation is not discarded fleet-wide as stale; leases ride the
// same durable store, saved after every mutation and recovered on restart.
// Accepted sets are made durable before they are distributed, so a root
// crash between publish and fleet convergence cannot lose a renegotiation.
func (rt *Runtime) attachControl(resumeSet *agreement.Set) error {
	eng, st := rt.cfg.Engine, rt.cfg.Persist
	logger := eng.Logger()
	opt := ctrlplane.Options{Lead: rt.cfg.CtrlLead, Logger: logger, Resume: resumeSet}
	if st != nil {
		opt.SaveLeases = func(t *budget.Table) {
			if err := st.SaveLeases(t); err != nil {
				logger.Error("persist lease table", "version", t.Version, "err", err)
			}
		}
		if lt, err := st.LoadNewestLeases(); err == nil {
			opt.ResumeLeases = lt
		} else {
			logger.Error("load lease table", "err", err)
		}
		opt.Publish = func(set *agreement.Set, gate int) { rt.saveSet(set) }
	}
	if tree := rt.tree; tree != nil {
		opt.Epoch = func() int {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return tree.Epoch()
		}
		opt.Publish = func(set *agreement.Set, gate int) {
			rt.saveSet(set)
			data, err := set.Encode()
			if err != nil {
				logger.Error("encode agreement set", "version", set.Version, "err", err)
				return
			}
			rt.mu.Lock()
			tree.SetConfig(&combining.ConfigUpdate{Version: set.Version, GateEpoch: gate, Payload: data})
			rt.mu.Unlock()
		}
	}
	var err error
	rt.plane, err = ctrlplane.New(eng.System(), eng, opt)
	return err
}

// observe wires window tracing, health checking, request tracing and the
// admin handler. The tree snapshot runs inside the window boundary under
// rt.mu, so reading the forest directly is safe.
func (rt *Runtime) observe() {
	cfg, eng := rt.cfg, rt.cfg.Engine
	rt.obsv = eng.NewObserver(cfg.ID, nil, cfg.TraceDepth)
	if tree := rt.tree; tree != nil {
		rt.obsv.SetTreeInfo(func() obs.TreeInfo {
			reports, broadcasts, sent := tree.MessageCounts()
			return obs.TreeInfo{
				Epoch:       tree.Epoch(),
				GlobalEpoch: tree.GlobalEpoch(),
				MsgsIn:      reports + broadcasts,
				MsgsOut:     sent,
			}
		})
	}
	if cfg.Health != nil {
		owners := make(map[string]agreement.Principal)
		for p, bs := range cfg.Backends {
			for _, b := range bs {
				owners[b] = p
			}
		}
		rt.reint = health.NewReinterpreter(eng, owners)
		rt.checker = health.New(*cfg.Health, health.TCPProber(cfg.Health.Timeout))
		rt.checker.OnTransition(rt.reint.HandleTransition)
		rt.checker.Watch(rt.reint.Targets()...)
		rt.obsv.SetHealthInfo(rt.reint.Degraded)
		rt.checker.Start()
	}
	rt.red.SetObserver(rt.obsv)

	hcfg := obs.HandlerConfig{
		Observers:  []*obs.Observer{rt.obsv},
		Auditor:    rt.obsv.Auditor(),
		Solver:     eng.Stats(),
		Mode:       eng.Mode().String(),
		Window:     eng.Window(),
		Extra:      rt.extraMetrics,
		Histograms: cfg.Histograms,
		Config: func() obs.ConfigInfo {
			info := eng.Rollout()
			return obs.ConfigInfo{
				Active:     uint64(info.Active),
				Staged:     uint64(info.Staged),
				SetVersion: info.SetVersion,
				GateEpoch:  info.GateEpoch,
				Rollouts:   info.Rollouts,
			}
		},
	}
	if rt.plane != nil {
		hcfg.Control = rt.plane.Handler()
	}
	if rt.tree != nil {
		hcfg.Topology = rt.topologyInfo
	}
	if cfg.Trace != nil {
		rt.tracer = obs.NewTracer(*cfg.Trace, cfg.ID)
		if cfg.Flight != nil {
			fl := *cfg.Flight
			if fl.Logger == nil {
				fl.Logger = eng.Logger().With("flight")
			}
			rt.flight = obs.NewFlightRecorder(fl)
			rt.flight.BindTracer(rt.tracer)
			rt.flight.BindWindows(rt.obsv.Ring())
			rt.flight.BindAuditor(rt.obsv.Auditor())
			rt.flight.SetCounters(rt.adm.CountersSnapshot)
		}
		hcfg.Tracer, hcfg.Flight = rt.tracer, rt.flight
	}
	rt.handler = obs.NewHandler(hcfg)
}

// Start runs the window loop. Call it once, after the front-end's request
// path is ready for AfterWindow.
func (rt *Runtime) Start() {
	rt.ticker = time.NewTicker(rt.cfg.Engine.Window())
	rt.loop.Add(1)
	go rt.windowLoop()
}

func (rt *Runtime) windowLoop() {
	defer rt.loop.Done()
	for {
		select {
		case <-rt.done:
			return
		case <-rt.ticker.C:
			err := rt.boundary()
			if rt.cfg.AfterWindow != nil {
				rt.cfg.AfterWindow(err)
			}
		}
	}
}

// boundary runs one window boundary under rt.mu: fold the local estimate,
// tick the tree (or, alone, take the estimate as the global truth), feed
// the rollout view to the epoch gate, start the admission window, append
// the durable record, and open the tracer's window.
func (rt *Runtime) boundary() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.estBuf = rt.red.LocalEstimateInto(rt.estBuf)
	var epoch, gate int
	var known uint64
	if rt.tree != nil {
		if rt.reparent != nil {
			// Failure detection first: a silent neighbor is pruned and this
			// epoch's report already goes to the new parent.
			rt.reparent.Check(rt.tree, rt.Elapsed())
		}
		rt.tree.SetLocal(rt.estBuf)
		rt.tree.Tick()
		if rt.tree.IsRoot() {
			rt.pushGlobalLocked()
		}
		// Rollout view for the epoch gate: this node's epoch and the newest
		// agreement-set version the tree delivered.
		epoch = max(rt.tree.Epoch(), rt.tree.GlobalEpoch())
		if cu := rt.tree.Config(); cu != nil {
			known, gate = cu.Version, cu.GateEpoch
		}
		rt.red.SetRollout(epoch, known)
	} else {
		rt.red.SetGlobal(rt.estBuf, rt.Elapsed())
	}
	// The plane folds the shards' arrival/admission counters, schedules the
	// next window, and flips the credit pool — in-flight admits keep
	// draining the old pool until the new one is published, so the boundary
	// never stalls them. A scheduling failure leaves last window's credits
	// in place; enforcement degrades gracefully.
	err := rt.adm.StartWindow(rt.Elapsed())
	rt.persistWindowLocked(epoch, known, gate)
	rt.tracer.StartWindow(uint64(rt.red.Windows), uint64(rt.cfg.Engine.Version()))
	return err
}

// persistWindowLocked appends the just-started window's durable record to
// the store, compacting the record log every persistCheckpointEvery
// appends; a no-op without a store. Errors are logged, never fatal:
// enforcement continues with a wider crash-loss bound.
func (rt *Runtime) persistWindowLocked(epoch int, known uint64, gate int) {
	st, logger := rt.cfg.Persist, rt.cfg.Engine.Logger()
	if st == nil {
		return
	}
	ws := rt.rec.Build(rt.cfg.Engine, rt.red, epoch, known, gate)
	if err := st.AppendWindow(ws); err != nil {
		logger.Error("persist window record", "window", ws.WindowSeq, "err", err)
		return
	}
	if rt.appends++; rt.appends%persistCheckpointEvery == 0 {
		if err := st.Checkpoint(); err != nil {
			logger.Error("persist checkpoint", "err", err)
		}
	}
}

// onTreeMessage is the transport handler: it feeds the forest under rt.mu
// and, on a broadcast, publishes the new global view.
func (rt *Runtime) onTreeMessage(tree int, from combining.NodeID, msg interface{}) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tree == nil {
		return
	}
	rt.tree.OnMessage(tree, from, msg)
	if _, ok := msg.(combining.Broadcast); ok {
		rt.pushGlobalLocked()
		// Pre-solve the plan the next window boundary will need while we
		// are already off the request path; the boundary's solve becomes a
		// plan-cache hit and never stalls admissions.
		rt.red.Presolve(rt.Elapsed())
	}
}

// pushGlobalLocked publishes the settled aggregates to the engine: the flat
// single-tree path keeps the uniform SetGlobal semantics, sharded forests
// stamp each agreement component with its own tree's timestamp.
func (rt *Runtime) pushGlobalLocked() {
	if rt.tree.Trees() == 1 {
		if agg, at, ok := rt.tree.ComponentGlobal(0); ok {
			rt.red.SetGlobal(agg.Sum, at)
		}
		return
	}
	for t := 0; t < rt.tree.Trees(); t++ {
		if agg, at, ok := rt.tree.ComponentGlobal(t); ok {
			rt.red.SetGlobalComponent(rt.tree.Component(t), agg.Sum, at)
		}
	}
}

// extraMetrics appends the front-end's series, then the admission, health,
// tree-transport and hop series, to /v1/metrics.
func (rt *Runtime) extraMetrics(w io.Writer) {
	if rt.cfg.Metrics != nil {
		rt.cfg.Metrics(w)
	}
	admission.WriteMetrics(w, rt.adm)
	health.WriteMetrics(w, rt.checker, rt.reint)
	treenet.WriteMetrics(w, rt.transport, rt.reparent)
	combining.WriteHopMetrics(w, rt.hop)
}

// Close stops the window loop and waits for it (a boundary in flight, and
// its AfterWindow, finish first), stops the health checker, runs the
// front-end's OnClose, closes the tree transport, and checkpoints the
// store so the next boot replays one record, not the whole run. It returns
// the first error of those steps; later calls return the same error.
func (rt *Runtime) Close() error {
	rt.closeOnce.Do(func() {
		close(rt.done)
		if rt.ticker != nil {
			rt.ticker.Stop()
		}
		rt.loop.Wait()
		if rt.checker != nil {
			rt.checker.Stop()
		}
		var errs []error
		if rt.cfg.OnClose != nil {
			errs = append(errs, rt.cfg.OnClose())
		}
		if rt.transport != nil {
			errs = append(errs, rt.transport.Close())
		}
		if rt.cfg.Persist != nil {
			errs = append(errs, rt.cfg.Persist.Checkpoint())
		}
		for _, err := range errs {
			if err != nil {
				rt.closeErr = err
				break
			}
		}
	})
	return rt.closeErr
}

// WindowRecord builds a redirector's durable per-window record, reusing
// its export buffers across windows. It is the one owner of the record
// format: provider mode persists per-owner credit totals, community mode
// the full credit matrix. The zero value is ready; it is not safe for
// concurrent use.
type WindowRecord struct {
	matrix          [][]float64
	total, estimate []float64
}

// Build captures red's just-started window at rollout position epoch, with
// the newest known agreement-set version and its gate epoch. The record
// aliases the builder's buffers until the next Build.
func (b *WindowRecord) Build(eng *core.Engine, red *core.Redirector, epoch int, known uint64, gate int) persist.WindowState {
	if b.total == nil {
		n := eng.NumPrincipals()
		b.total = make([]float64, n)
		b.matrix = make([][]float64, n)
		for i := range b.matrix {
			b.matrix[i] = make([]float64, n)
		}
	}
	red.ExportCredits(b.matrix, b.total)
	b.estimate = red.ExportEstimate(b.estimate)
	ws := persist.WindowState{
		WindowSeq:  red.Windows,
		Epoch:      epoch,
		SetVersion: known,
		Gate:       gate,
		Estimate:   b.estimate,
	}
	if eng.Mode() == core.Provider {
		ws.CreditTotal = b.total
	} else {
		ws.Credit = b.matrix
	}
	return ws
}
