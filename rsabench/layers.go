package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
)

// traceData is what the traced pass leaves in the fleet's rings, read from
// outside through the layers' public surfaces.
type traceData struct {
	spans   [][]obs.Span   // per redirector, committed request spans
	windows [][]obs.Record // per redirector, every window record of the run
}

func collectTrace(f *fleet) traceData {
	var td traceData
	for _, n := range f.nodes {
		td.spans = append(td.spans, n.Tracer().Ring().Snapshot(0))
		td.windows = append(td.windows, n.Observer().Ring().Snapshot(0))
	}
	return td
}

// windowWall converts a record's redirector-relative open time to unix ns.
func (f *fleet) windowWall(i int, rec *obs.Record) int64 {
	return f.bootAt[i].UnixNano() + rec.AtNanos
}

// replayRow is one replayed window boundary: the boundary layers' public
// calls in the window loop's order, each timed, then the window's recorded
// arrivals pushed through the admission plane.
type replayRow struct {
	Redirector    int    `json:"redirector"`
	Window        uint64 `json:"window"`
	EstimateNs    int64  `json:"estimate_ns"`
	SetGlobalNs   int64  `json:"set_global_ns"`
	StartWindowNs int64  `json:"start_window_ns"`
	ExportNs      int64  `json:"export_ns"`
	AppendNs      int64  `json:"append_ns"`
	AppendBytes   int64  `json:"append_bytes"`
	CheckpointNs  int64  `json:"checkpoint_ns"`
	Admits        int    `json:"admits"`
	AdmitNs       int64  `json:"admit_ns"` // mean per Admit call
}

// replayCheckpointEvery is the replay's checkpoint cadence in appends. The
// live redirectors compact every 256 appends, which one run reaches at most
// once or twice; the replay compacts more often to time enough checkpoints.
const replayCheckpointEvery = 16

// replay feeds each redirector's recorded window sequence through a fresh
// engine, core redirector, admission plane and (for persisting workloads)
// durable store on the same disk as the live stores.
func replay(w *workload, windows [][]obs.Record, dir string) ([]replayRow, error) {
	var rows []replayRow
	for i, recs := range windows {
		eng, ps, err := w.engine()
		if err != nil {
			return nil, err
		}
		red := eng.NewRedirector(i)
		pl, err := admission.New(admission.Config{Redirector: red, Engine: eng})
		if err != nil {
			return nil, err
		}
		var store *persist.Store
		storeDir := filepath.Join(dir, fmt.Sprintf("store-%d", i))
		if w.persist {
			if store, err = persist.Open(storeDir); err != nil {
				return nil, err
			}
		}
		n := eng.NumPrincipals()
		credit := make([][]float64, n)
		for k := range credit {
			credit[k] = make([]float64, n)
		}
		total := make([]float64, n)
		var local, est []float64
		appends := 0
		for _, rec := range recs {
			row := replayRow{Redirector: i, Window: rec.Window}
			t := time.Now()
			local = red.LocalEstimateInto(local)
			row.EstimateNs = int64(time.Since(t))
			if rec.HaveGlobal {
				t = time.Now()
				red.SetGlobal(rec.Global, time.Duration(rec.AtNanos))
				row.SetGlobalNs = int64(time.Since(t))
			}
			t = time.Now()
			_ = pl.StartWindow(time.Duration(rec.AtNanos)) // a failed solve keeps last window's credits, as live
			row.StartWindowNs = int64(time.Since(t))
			t = time.Now()
			red.ExportCredits(credit, total)
			est = red.ExportEstimate(est)
			row.ExportNs = int64(time.Since(t))
			if store != nil {
				ws := persist.WindowState{WindowSeq: red.Windows, Estimate: est}
				if w.mode == core.Provider {
					ws.CreditTotal = total
				} else {
					ws.Credit = credit
				}
				before := dirSize(storeDir)
				t = time.Now()
				if err := store.AppendWindow(ws); err != nil {
					store.Close()
					return nil, err
				}
				row.AppendNs = int64(time.Since(t))
				row.AppendBytes = dirSize(storeDir) - before
				if appends++; appends%replayCheckpointEvery == 0 {
					t = time.Now()
					if err := store.Checkpoint(); err != nil {
						store.Close()
						return nil, err
					}
					row.CheckpointNs = int64(time.Since(t))
				}
			}
			t = time.Now()
			for p := 0; p < n; p++ {
				for j := int(math.Round(rec.Arrived[p])); j > 0; j-- {
					pl.Admit(ps[p])
					row.Admits++
				}
			}
			if row.Admits > 0 {
				row.AdmitNs = int64(time.Since(t)) / int64(row.Admits)
			}
			rows = append(rows, row)
		}
		if store != nil {
			if err := store.Close(); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// dirSize sums the sizes of the regular files directly in dir.
func dirSize(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// foldMicros times agreement.System.SystemAccess on the workload's graph:
// batches of 32 calls for at least 200 ms, median per-call microseconds.
func foldMicros(w *workload) (float64, error) {
	sys, _, err := w.system()
	if err != nil {
		return 0, err
	}
	const batch = 32
	var per []float64
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		t := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := sys.SystemAccess(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/batch/1e3)
	}
	return median(per), nil
}

// spansIn returns the spans of all redirectors that started in the span.
func spansIn(p *pass, td traceData) []obs.Span {
	var out []obs.Span
	for _, ss := range td.spans {
		for _, s := range ss {
			if p.inSpan(s.StartUnixNanos) {
				out = append(out, s)
			}
		}
	}
	return out
}

// unattributedUs joins each served client request to the server span that
// handled it (same redirector and principal, span start inside the client's
// send → last byte interval, first unused) and returns client rtt minus the
// server-attributed time: the whole span at Layer 7, accept → first reply
// byte at Layer 4 (the L4 span closes only after the client hangs up).
func unattributedUs(f *fleet, p *pass, td traceData) []float64 {
	type key struct {
		r    int
		name string
	}
	idx := make(map[key][]obs.Span)
	for r, ss := range td.spans {
		for _, s := range ss {
			if s.Verdict == obs.VerdictAdmit || s.Verdict == obs.VerdictSteal {
				idx[key{r, s.Principal}] = append(idx[key{r, s.Principal}], s)
			}
		}
	}
	used := make(map[key][]bool)
	for k, ss := range idx {
		sort.Slice(ss, func(i, j int) bool { return ss[i].StartUnixNanos < ss[j].StartUnixNanos })
		used[k] = make([]bool, len(ss))
	}
	var out []float64
	for i, s := range p.samples {
		if s.out != served || !p.inSpan(s.sched) {
			continue
		}
		k := key{p.reqs[i].redirector, f.names[f.w.users[p.reqs[i].user]]}
		ss := idx[k]
		j := sort.Search(len(ss), func(j int) bool { return ss[j].StartUnixNanos >= s.sent })
		for ; j < len(ss) && ss[j].StartUnixNanos <= s.done; j++ {
			if used[k][j] {
				continue
			}
			used[k][j] = true
			server := ss[j].TotalNanos
			if f.w.layer == "l4" {
				server = ss[j].FirstByteNanos
			}
			out = append(out, float64(s.done-s.sent-server)/1e3)
			break
		}
	}
	return out
}

// layerMetrics derives every per-layer metric. Metrics of a layer the
// workload does not run (l4.* on Layer-7 workloads, persist.* without
// stores, and the reverse) read 0.
func layerMetrics(f *fleet, p0, p1 *pass, td traceData, rows []replayRow, foldUs float64) metrics {
	m := metrics{}
	t1 := p1.tally()
	c0, c1 := p1.begin, p1.end
	attempted := float64(t1.attempted)

	m.set("client.send_lag_p50_ms", quantile(t1.lagMs, 0.5), "ms")
	m.set("client.send_lag_p99_ms", quantile(t1.lagMs, 0.99), "ms")
	m.set("client.rtt_p50_us", quantile(t1.rttUs, 0.5), "us")
	m.set("client.rtt_p99_us", quantile(t1.rttUs, 0.99), "us")
	m.set("client.latency_p999_ms", quantile(t1.latencyMs, 0.999), "ms")

	spans := spansIn(p1, td)
	var admitUs, fbUs, handleUs, l4AdmitUs, parkMs, dialUs, l4FbUs, connUs []float64
	for _, s := range spans {
		switch f.w.layer {
		case "l7":
			if s.AdmitNanos > 0 {
				admitUs = append(admitUs, float64(s.AdmitNanos)/1e3)
			}
			if s.FirstByteNanos > 0 && s.BackendNanos > 0 {
				fbUs = append(fbUs, float64(s.FirstByteNanos-s.BackendNanos)/1e3)
			}
			handleUs = append(handleUs, float64(s.TotalNanos)/1e3)
		case "l4":
			if s.Reparks == 0 && s.AdmitNanos > 0 {
				l4AdmitUs = append(l4AdmitUs, float64(s.AdmitNanos)/1e3)
			}
			if s.Reparks > 0 {
				parkMs = append(parkMs, float64(s.ParkNanos)/1e6)
			}
			if s.DialNanos > 0 && s.BackendNanos > 0 {
				dialUs = append(dialUs, float64(s.DialNanos-s.BackendNanos)/1e3)
			}
			if s.FirstByteNanos > 0 && s.DialNanos > 0 {
				l4FbUs = append(l4FbUs, float64(s.FirstByteNanos-s.DialNanos)/1e3)
			}
			connUs = append(connUs, float64(s.TotalNanos)/1e3)
		}
	}
	l7resid, l4resid := median(unattributedUs(f, p1, td)), 0.0
	if f.w.layer == "l4" {
		l7resid, l4resid = 0, l7resid
	}

	m.set("l7.admit_us_p50", quantile(admitUs, 0.5), "us")
	m.set("l7.admit_us_p99", quantile(admitUs, 0.99), "us")
	m.set("l7.proxy_first_byte_us_p50", quantile(fbUs, 0.5), "us")
	m.set("l7.proxy_first_byte_us_p99", quantile(fbUs, 0.99), "us")
	m.set("l7.handle_us_p50", quantile(handleUs, 0.5), "us")
	m.set("l7.handle_us_p99", quantile(handleUs, 0.99), "us")
	m.set("l7.unattributed_us_p50", l7resid, "us")
	m.set("l7.admitted", float64(c1.admitted-c0.admitted), "count")
	m.set("l7.rejected", float64(c1.rejected-c0.rejected), "count")

	m.set("l4.admit_us_p99", quantile(l4AdmitUs, 0.99), "us")
	m.set("l4.park_ms_p50", quantile(parkMs, 0.5), "ms")
	m.set("l4.park_ms_p99", quantile(parkMs, 0.99), "ms")
	m.set("l4.dial_us_p50", quantile(dialUs, 0.5), "us")
	m.set("l4.dial_us_p99", quantile(dialUs, 0.99), "us")
	m.set("l4.first_byte_us_p99", quantile(l4FbUs, 0.99), "us")
	m.set("l4.conn_us_p50", quantile(connUs, 0.5), "us")
	m.set("l4.unattributed_us_p50", l4resid, "us")
	m.set("l4.parked_share", ratio(float64(c1.parked-c0.parked), attempted), "ratio")
	m.set("l4.expired", float64(c1.expired-c0.expired), "count")
	m.set("l4.dropped", float64(c1.dropped-c0.dropped), "count")
	m.set("l4.reparked", float64(c1.reparked-c0.reparked), "count")
	m.set("l4.dial_failures", float64(c1.dialFailures-c0.dialFailures), "count")

	m.set("admission.admits", c1.admits-c0.admits, "count")
	m.set("admission.rejects", c1.rejects-c0.rejects, "count")
	m.set("admission.steal_ratio", ratio(c1.steals-c0.steals, c1.admits-c0.admits), "ratio")
	var admitNs, startUs, appendUs, checkpointMs []float64
	var appendBytes, appends float64
	for _, r := range rows {
		if r.Admits > 0 {
			admitNs = append(admitNs, float64(r.AdmitNs))
		}
		startUs = append(startUs, float64(r.StartWindowNs)/1e3)
		if r.AppendNs > 0 {
			appendUs = append(appendUs, float64(r.AppendNs)/1e3)
			appendBytes += float64(r.AppendBytes)
			appends++
		}
		if r.CheckpointNs > 0 {
			checkpointMs = append(checkpointMs, float64(r.CheckpointNs)/1e6)
		}
	}
	m.set("admission.admit_ns_p50", median(admitNs), "ns")
	m.set("admission.start_window_us_p99", quantile(startUs, 0.99), "us")

	// Window records opened inside the span.
	window := float64(f.w.window.Nanoseconds())
	var lagMs, solveUs, ageMs []float64
	var recs, conservative, grant, arrivedUnderFloor, msgs float64
	for i, rs := range td.windows {
		var first, last *obs.Record
		var prevAt int64 = -1
		for k := range rs {
			rec := &rs[k]
			in := p1.inSpan(f.windowWall(i, rec))
			if in && prevAt >= 0 {
				lagMs = append(lagMs, (float64(rec.AtNanos-prevAt)-window)/1e6)
			}
			prevAt = rec.AtNanos
			if !in {
				continue
			}
			if first == nil {
				first = rec
			}
			last = rec
			recs++
			if rec.Conservative {
				conservative++
			}
			if rec.HaveGlobal {
				ageMs = append(ageMs, float64(rec.GlobalAgeNanos)/1e6)
				if !rec.CacheHit && !rec.Conservative {
					solveUs = append(solveUs, float64(rec.SolveNanos)/1e3)
				}
			}
			for p := range rec.Arrived {
				if a := rec.Arrived[p]; a > 0 && a <= rec.Floor[p] {
					grant += rec.Granted[p]
					arrivedUnderFloor += a
				}
			}
		}
		if first != nil {
			msgs += float64(last.TreeMsgsIn + last.TreeMsgsOut - first.TreeMsgsIn - first.TreeMsgsOut)
		}
	}
	windows := float64(c1.windows - c0.windows)
	m.set("core.window_lag_ms_p50", quantile(lagMs, 0.5), "ms")
	m.set("core.window_lag_ms_p99", quantile(lagMs, 0.99), "ms")
	m.set("core.conservative_share", ratio(conservative, recs), "ratio")
	m.set("core.grant_cover_ratio", ratio(grant, arrivedUnderFloor), "ratio")

	m.set("sched.cache_hit_ratio", ratio(float64(c1.cacheHits-c0.cacheHits),
		float64(c1.cacheHits-c0.cacheHits+c1.cacheMisses-c0.cacheMisses)), "ratio")
	m.set("sched.solves_per_window", ratio(float64(c1.solves-c0.solves), windows), "count/window")
	m.set("sched.solve_us_p50", quantile(solveUs, 0.5), "us")
	m.set("sched.solve_us_p99", quantile(solveUs, 0.99), "us")

	m.set("treenet.global_age_ms_p50", quantile(ageMs, 0.5), "ms")
	m.set("treenet.global_age_ms_p99", quantile(ageMs, 0.99), "ms")
	m.set("treenet.msgs_per_window", ratio(msgs, recs), "count/window")
	m.set("treenet.send_errors", float64(c1.sendErrors-c0.sendErrors), "count")
	m.set("treenet.queue_drops", float64(c1.queueDrops-c0.queueDrops), "count")
	m.set("treenet.reconnects", float64(c1.reconnects-c0.reconnects), "count")

	m.set("persist.append_us_p50", quantile(appendUs, 0.5), "us")
	m.set("persist.append_us_p99", quantile(appendUs, 0.99), "us")
	m.set("persist.checkpoint_ms_p99", quantile(checkpointMs, 0.99), "ms")
	m.set("persist.bytes_per_window", ratio(appendBytes, appends), "bytes")

	m.set("obs.trace_overhead_share", ratio(p1.cpuPerRequest(), p0.cpuPerRequest())-1, "ratio")
	m.set("obs.spans_dropped", float64(p1.final.spansDropped), "count")

	m.set("agreement.fold_us", foldUs, "us")
	return m
}

// clientRow is one client request in the trace file.
type clientRow struct {
	Seq        int    `json:"seq"`
	Principal  string `json:"principal"`
	Redirector int    `json:"redirector"`
	SchedNs    int64  `json:"sched_unix_ns"`
	SentNs     int64  `json:"sent_unix_ns"`
	DoneNs     int64  `json:"done_unix_ns"`
	Outcome    string `json:"outcome"`
	Owner      string `json:"owner,omitempty"`
	InSpan     bool   `json:"in_span"`
}

// writeTrace writes the traced pass's client spans, server spans, window
// records, replay stage timings and the derived metrics as gzipped JSON.
func writeTrace(o options, h host, f *fleet, p *pass, td traceData, rows []replayRow, m metrics) (string, error) {
	dir := filepath.Join(o.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json.gz", o.workload, o.seed))
	outcomes := map[outcome]string{served: "served", rejected: "rejected", errored: "error"}
	clients := make([]clientRow, len(p.samples))
	for i, s := range p.samples {
		r := p.reqs[i]
		clients[i] = clientRow{
			Seq: i, Principal: f.names[f.w.users[r.user]], Redirector: r.redirector,
			SchedNs: s.sched, SentNs: s.sent, DoneNs: s.done, Outcome: outcomes[s.out],
			InSpan: p.inSpan(s.sched),
		}
		if s.owner >= 0 {
			clients[i].Owner = f.names[s.owner]
		}
	}
	var windows []map[string]any
	for i, rs := range td.windows {
		for k := range rs {
			windows = append(windows, map[string]any{
				"open_unix_ns": f.windowWall(i, &rs[k]), "record": rs[k],
			})
		}
	}
	doc := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "host": h,
		"span":         map[string]int64{"from_unix_ns": p.from.UnixNano(), "to_unix_ns": p.to.UnixNano()},
		"client":       clients,
		"server_spans": td.spans,
		"windows":      windows,
		"replay":       rows,
		"metrics":      m,
	}
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, _ := gzip.NewWriterLevel(file, gzip.BestSpeed)
	if err := json.NewEncoder(zw).Encode(doc); err != nil {
		file.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}
