package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

// principalSpec declares one principal of a workload's agreement graph.
type principalSpec struct {
	name     string
	capacity float64 // requests/s sold through the agreements
}

// agreementSpec is one sharing agreement owner → user [lb, ub].
type agreementSpec struct {
	owner, user int
	lb, ub      float64
}

// backendSpec is one backend server: its owner and its service rate.
type backendSpec struct {
	owner int
	rate  float64 // requests/s the backend serves before queueing
}

// workload is one benchmark traffic shape: the fleet it boots and the
// open-loop request schedule it drives that fleet with.
type workload struct {
	name string

	layer       string // "l7" or "l4"
	mode        core.Mode
	window      time.Duration
	redirectors int
	fanout      int
	principals  []principalSpec
	agreements  []agreementSpec
	provider    int   // provider principal index (Provider mode only)
	users       []int // principal indexes that send load
	backends    []backendSpec
	persist     bool // each redirector appends every window to a durable store
	maxPending  int  // Layer-4 pending-queue bound per principal (0: the l4 default)

	// schedule builds the request schedule over [0, span). Principal i's
	// arrivals come from a generator seeded with seed+i.
	schedule func(seed int64, span time.Duration, redirectors int) []request
}

// request is one scheduled client exchange.
type request struct {
	at         time.Duration // send time, offset from the load start
	user       int           // index into workload.users
	redirector int
	size       int // requested response body bytes (Layer 7)
}

var workloads = []*workload{
	{
		name:  "l7-steady",
		layer: "l7", mode: core.Provider, window: 100 * time.Millisecond,
		redirectors: 2, fanout: 2,
		principals: []principalSpec{{"S", 1600}, {"A", 0}, {"B", 0}},
		agreements: []agreementSpec{{0, 1, 0.2, 1}, {0, 2, 0.8, 1}},
		provider:   0,
		users:      []int{1, 2},
		backends:   []backendSpec{{0, 800}, {0, 800}},
		schedule: func(seed int64, span time.Duration, redirectors int) []request {
			return poisson(seed, span, redirectors, []float64{300, 300})
		},
	},
	{
		name:  "l7-overload-churn",
		layer: "l7", mode: core.Community, window: 50 * time.Millisecond,
		redirectors: 4, fanout: 2,
		principals: []principalSpec{{"P0", churnSold}, {"P1", churnSold}, {"P2", churnSold}, {"P3", churnSold}},
		agreements: []agreementSpec{
			{0, 1, 0.3, 0.7}, {1, 2, 0.3, 0.7}, {2, 3, 0.3, 0.7}, {3, 0, 0.3, 0.7},
		},
		provider: -1,
		users:    []int{0, 1, 2, 3},
		backends: []backendSpec{{0, churnBackend}, {1, churnBackend}, {2, churnBackend}, {3, churnBackend}},
		persist:  true,
		schedule: churnSchedule,
	},
	{
		name:  "l4-connect",
		layer: "l4", mode: core.Community, window: 100 * time.Millisecond,
		redirectors: 2, fanout: 2,
		principals: []principalSpec{{"A", 320}, {"B", 320}},
		agreements: []agreementSpec{{1, 0, 0.5, 0.5}},
		provider:   -1,
		users:      []int{0, 1},
		backends:   []backendSpec{{0, 3200}, {1, 3200}},
		maxPending: 1,
		persist:    true,
		schedule: func(seed int64, span time.Duration, redirectors int) []request {
			reqs := poisson(seed, span, redirectors, []float64{l4Rate, l4Rate})
			for i := range reqs {
				reqs[i].redirector = reqs[i].user % redirectors
			}
			return reqs
		},
	},
}

// churnSold is each l7-overload-churn principal's sold capacity (req/s).
// An "on" principal offers 2.5× it and an "off" one 0.5× it; two are on at
// any time, so the fleet is offered 1.5× what it sold.
const churnSold = 150

// churnBackend is each l7-overload-churn backend's service rate: far above
// what the agreements route to it, so backends never set the latency.
const churnBackend = 4000

// l4Rate is each l4-connect principal's Poisson rate (connections/s).
const l4Rate = 12

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// system builds the workload's agreement graph.
func (w *workload) system() (*agreement.System, []agreement.Principal, error) {
	sys := agreement.New()
	ps := make([]agreement.Principal, len(w.principals))
	for i, p := range w.principals {
		var err error
		if ps[i], err = sys.AddPrincipal(p.name, p.capacity); err != nil {
			return nil, nil, err
		}
	}
	for _, a := range w.agreements {
		if err := sys.SetAgreement(ps[a.owner], ps[a.user], a.lb, a.ub); err != nil {
			return nil, nil, err
		}
	}
	return sys, ps, nil
}

// engine builds one redirector's scheduling engine, exactly as a separate
// redirector process loading the same scenario would.
func (w *workload) engine() (*core.Engine, []agreement.Principal, error) {
	sys, ps, err := w.system()
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{Mode: w.mode, System: sys, NumRedirectors: w.redirectors, Window: w.window}
	if w.mode == core.Provider {
		cfg.ProviderPrincipal = ps[w.provider]
	}
	eng, err := core.NewEngine(cfg)
	return eng, ps, err
}

// poisson merges one arrival stream per user (rates in req/s). Each stream
// is Poisson conditioned on its count: every whole second holds exactly
// round(rate) arrivals placed uniformly at random, so the offered load, and
// with it goodput, does not drift with the seed. Each request picks its
// redirector uniformly and a body size in [256, 4096] bytes.
func poisson(seed int64, span time.Duration, redirectors int, rates []float64) []request {
	var reqs []request
	for u, rate := range rates {
		rng := rand.New(rand.NewSource(seed + int64(u)))
		for s := 0.0; s < span.Seconds(); s++ {
			reqs = appendArrivals(reqs, rng, u, redirectors, rate, s, math.Min(s+1, span.Seconds()))
		}
	}
	sortRequests(reqs)
	return reqs
}

// churnSchedule is l7-overload-churn's on/off load: time is cut into
// segments of 0.4–0.8 s (drawn from seed), and in segment k principals k
// and k+1 (mod 4) are on. Within a segment each principal sends at its on or
// off rate (seed+i), Poisson conditioned on the segment's count.
func churnSchedule(seed int64, span time.Duration, redirectors int) []request {
	const users = 4
	on, off := 2.5*churnSold, 0.5*churnSold
	segRng := rand.New(rand.NewSource(seed))
	var bounds []float64 // segment start times, seconds
	for t := 0.0; t < span.Seconds(); t += 0.4 + 0.4*segRng.Float64() {
		bounds = append(bounds, t)
	}
	bounds = append(bounds, span.Seconds())
	var reqs []request
	for u := 0; u < users; u++ {
		rng := rand.New(rand.NewSource(seed + int64(u)))
		for k := 0; k+1 < len(bounds); k++ {
			rate := off
			if u == k%users || u == (k+1)%users {
				rate = on
			}
			reqs = appendArrivals(reqs, rng, u, redirectors, rate, bounds[k], bounds[k+1])
		}
	}
	sortRequests(reqs)
	return reqs
}

// appendArrivals places round(rate·(to−from)) requests of user u uniformly
// in [from, to) seconds.
func appendArrivals(reqs []request, rng *rand.Rand, u, redirectors int, rate, from, to float64) []request {
	for n := int(math.Round(rate * (to - from))); n > 0; n-- {
		reqs = append(reqs, request{
			at:   time.Duration((from + rng.Float64()*(to-from)) * float64(time.Second)),
			user: u, redirector: rng.Intn(redirectors), size: 256 + rng.Intn(3841),
		})
	}
	return reqs
}

func sortRequests(reqs []request) {
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })
}
