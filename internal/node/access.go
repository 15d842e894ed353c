package node

import (
	"errors"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/agreement"
	"repro/internal/combining"
	"repro/internal/core"
	"repro/internal/ctrlplane"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/treenet"
)

// Boundary returns the window-boundary lock and the core redirector it
// guards, for front-end reads of window state (stats endpoints, tests).
func (rt *Runtime) Boundary() (*sync.Mutex, *core.Redirector) { return &rt.mu, rt.red }

// Admission returns the sharded admission plane request paths admit on.
func (rt *Runtime) Admission() *admission.Plane { return rt.adm }

// Checker returns the backend health checker (nil without Config.Health).
func (rt *Runtime) Checker() *health.Checker { return rt.checker }

// Elapsed is the node's time base: time since construction.
func (rt *Runtime) Elapsed() time.Duration { return time.Since(rt.start) }

// Observer exposes the window-trace observer (auditor counters, trace ring).
func (rt *Runtime) Observer() *obs.Observer { return rt.obsv }

// Tracer exposes the request-span tracer (nil unless Config.Trace was set).
func (rt *Runtime) Tracer() *obs.Tracer { return rt.tracer }

// Flight exposes the SLO flight recorder (nil unless Config.Flight was set).
func (rt *Runtime) Flight() *obs.FlightRecorder { return rt.flight }

// Plane exposes the dynamic agreement control plane (nil unless Ctrl was
// set); its HTTP surface is part of ObsHandler.
func (rt *Runtime) Plane() *ctrlplane.Plane { return rt.plane }

// ObsHandler exposes the observability and control endpoints (/v1/metrics,
// /v1/debug/*, /v1/agreements, pprof) for mounting on a traffic mux or an
// admin listener.
func (rt *Runtime) ObsHandler() *obs.Handler { return rt.handler }

// TreeAddr returns the tree transport address ("" without a tree).
func (rt *Runtime) TreeAddr() string {
	if rt.transport == nil {
		return ""
	}
	return rt.transport.Addr()
}

// SetTreePeer registers a peer address after construction (fleet harnesses
// wire nodes once every ephemeral tree port is known).
func (rt *Runtime) SetTreePeer(id combining.NodeID, addr string) {
	if rt.transport != nil {
		rt.transport.SetPeer(id, addr)
	}
}

// TreeStats snapshots the tree transport's health and delta-compression
// counters (all zero without a tree).
func (rt *Runtime) TreeStats() treenet.Stats {
	if rt.transport == nil {
		return treenet.Stats{}
	}
	return rt.transport.Stats()
}

// BindNode binds a topology node id to the raw backend target currently
// serving it in the health plane, so chaos harnesses can address members
// by stable id across restarts and re-parenting (see
// health.Reinterpreter.BindNode). Errors without health checking.
func (rt *Runtime) BindNode(node int, target string) error {
	if rt.reint == nil {
		return errors.New("node: health checking disabled, no node registry")
	}
	return rt.reint.BindNode(node, target)
}

// NodeTarget resolves a bound topology node id to its current raw target
// ("" when unbound or health checking is off).
func (rt *Runtime) NodeTarget(node int) (string, bool) {
	if rt.reint == nil {
		return "", false
	}
	return rt.reint.NodeTarget(node)
}

// PrincipalName maps a principal to its span tag ("" when out of range).
func (rt *Runtime) PrincipalName(p agreement.Principal) string {
	if int(p) >= 0 && int(p) < len(rt.names) {
		return rt.names[p]
	}
	return ""
}

// SpanVerdict maps an admission outcome to its span verdict.
func SpanVerdict(out admission.Outcome) obs.Verdict {
	switch out {
	case admission.OutcomeAdmit:
		return obs.VerdictAdmit
	case admission.OutcomeSteal:
		return obs.VerdictSteal
	case admission.OutcomeDry:
		return obs.VerdictDry
	default:
		return obs.VerdictReject
	}
}

// topologyInfo snapshots the combining plane for GET /v1/topology. On a
// hierarchical layout it reports every member's current placement from the
// (possibly repaired) compiled plane; on a flat layout it reports this
// node's own neighborhood — the authoritative local view either way.
func (rt *Runtime) topologyInfo() *obs.TopologyInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.tree == nil {
		return nil
	}
	self := rt.tree.ID()
	info := &obs.TopologyInfo{Self: int(self)}
	if rt.topoPlane != nil {
		plane := rt.topoPlane()
		info.Root = int(plane.Root())
		info.Levels = plane.Levels()
		for _, id := range plane.Members() {
			node := obs.TopologyNode{ID: int(id), Parent: -1, Alive: plane.Alive(id)}
			if pl, ok := plane.Placement(id); ok {
				node.Region, node.Parent = pl.Region, int(pl.Parent)
				node.Level, node.SubRoot = pl.Level, pl.SubRoot
			}
			info.Nodes = append(info.Nodes, node)
		}
	} else {
		// Flat layout: this node only knows its own placement (and, with a
		// detector, which neighbors it pruned).
		parent, children := rt.cfg.Tree.Parent, rt.cfg.Tree.Children
		removed := make(map[combining.NodeID]bool)
		if rt.reparent != nil {
			parent, children = rt.reparent.Parent(), rt.reparent.Children()
			for _, id := range rt.reparent.Removed() {
				removed[id] = true
			}
		}
		info.Levels, info.Root = 2, int(self)
		level := 0
		if parent >= 0 {
			info.Root, level = int(parent), 1
			info.Nodes = append(info.Nodes, obs.TopologyNode{
				ID: int(parent), Region: "flat", Parent: -1, Alive: !removed[parent],
			})
		}
		info.Nodes = append(info.Nodes, obs.TopologyNode{
			ID: int(self), Region: "flat", Parent: int(parent), Level: level, Alive: true,
		})
		for _, c := range children {
			info.Nodes = append(info.Nodes, obs.TopologyNode{
				ID: int(c), Region: "flat", Parent: int(self), Level: level + 1, Alive: !removed[c],
			})
		}
	}
	for t := 0; t < rt.tree.Trees(); t++ {
		comp := obs.TopologyComponent{
			Tree:        t,
			Epoch:       rt.tree.Tree(t).Epoch(),
			GlobalEpoch: rt.tree.Tree(t).GlobalEpoch(),
		}
		for _, p := range rt.tree.Component(t) {
			comp.Principals = append(comp.Principals, rt.PrincipalName(agreement.Principal(p)))
		}
		info.Components = append(info.Components, comp)
	}
	st := rt.transport.Stats()
	info.DeltaBytesSaved = st.Delta.BytesSaved
	info.DeltaEntriesSuppressed = st.Delta.EntriesSuppressed
	info.DeltaEnabled = rt.cfg.Tree.Topology != nil && rt.cfg.Tree.Topology.Delta.Enabled()
	return info
}
