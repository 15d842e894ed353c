package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is the client-side record of one scheduled request.
type sample struct {
	sched, sent, done int64 // unix nanoseconds
	out               outcome
	owner             int8 // owner index of the serving backend (-1 unknown)
}

// pass is one open-loop drive of a booted fleet: the schedule, every
// request's sample, and counter snapshots at the measured span's edges and
// after the load drained.
type pass struct {
	f            *fleet
	t0, from, to time.Time // load start, measured span [from, to)
	reqs         []request
	samples      []sample
	begin, end   counters
	final        counters
	wrong        []string // output-check failures, first few
	wrongCount   int
}

// maxWrongKept bounds how many failed output checks a pass keeps verbatim.
const maxWrongKept = 8

// drive runs the open-loop schedule against f with runtime.NumCPU() workers
// (never more than nproc), each owning its own client. A worker claims the
// next request in schedule order, sleeps until its send time and performs
// it; when every worker is busy the request waits, and that wait shows as
// send lag because latency is timed from the scheduled send.
func drive(f *fleet, reqs []request, warmup, span time.Duration) *pass {
	p := &pass{f: f, reqs: reqs, samples: make([]sample, len(reqs))}
	p.t0 = time.Now().Add(20 * time.Millisecond)
	p.from = p.t0.Add(warmup)
	p.to = p.from.Add(span)

	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex // guards p.wrong, p.wrongCount
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := f.newExchange()
			defer ex.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				at := p.t0.Add(reqs[i].at)
				sleepUntil(at)
				sent := time.Now()
				out, owner, wrong := ex.do(&reqs[i], i)
				p.samples[i] = sample{
					sched: at.UnixNano(), sent: sent.UnixNano(), done: time.Now().UnixNano(),
					out: out, owner: int8(owner),
				}
				if wrong != "" {
					mu.Lock()
					p.wrongCount++
					if len(p.wrong) < maxWrongKept {
						p.wrong = append(p.wrong, wrong)
					}
					mu.Unlock()
				}
			}
		}()
	}
	time.Sleep(time.Until(p.from))
	p.begin = f.snapshot()
	time.Sleep(time.Until(p.to))
	p.end = f.snapshot()
	wg.Wait()
	p.final = f.snapshot()
	return p
}

// sleepUntil blocks the calling goroutine's thread in nanosleep(2). The Go
// timer wheel rounds sub-millisecond sleeps up to the netpoller's 1 ms
// granularity, which would add up to a millisecond of generator lateness to
// every request; the syscall wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// inSpan reports whether a unix-nanosecond instant lies in [from, to).
func (p *pass) inSpan(ns int64) bool {
	return ns >= p.from.UnixNano() && ns < p.to.UnixNano()
}

// tally counts the outcomes of the requests scheduled inside the span.
type tally struct {
	attempted, served, rejected, errored int
	latencyMs                            []float64 // scheduled send → last byte, served only
	lagMs                                []float64 // actual − scheduled send, all attempted
	rttUs                                []float64 // actual send → last byte, served only
}

func (p *pass) tally() tally {
	var t tally
	for _, s := range p.samples {
		if !p.inSpan(s.sched) {
			continue
		}
		t.attempted++
		t.lagMs = append(t.lagMs, float64(s.sent-s.sched)/1e6)
		switch s.out {
		case served:
			t.served++
			t.latencyMs = append(t.latencyMs, float64(s.done-s.sched)/1e6)
			t.rttUs = append(t.rttUs, float64(s.done-s.sent)/1e3)
		case rejected:
			t.rejected++
		default:
			t.errored++
		}
	}
	return t
}

// totals counts outcomes over every request of the pass (warm-up included),
// the base the counter reconciliation checks compare against. userServed is
// indexed like workload.users.
func (p *pass) totals() (srv, rej, errs int, userServed []int64) {
	userServed = make([]int64, len(p.f.w.users))
	for i, s := range p.samples {
		switch s.out {
		case served:
			srv++
			userServed[p.reqs[i].user]++
		case rejected:
			rej++
		default:
			errs++
		}
	}
	return srv, rej, errs, userServed
}

// clientBoundFraction is the largest share of latency_p99_ms the
// generator's own p99 send lag may take before a run is marked client_bound
// and failed. With at most nproc workers the client's queue is part of every
// open-loop latency: on a 2-CPU host the lag p99 is 0.5–0.7 of the latency
// p99 at the workloads' rates, and 0.75–0.85 while the shared host stalls
// client and fleet alike. A generator that cannot keep up lets the lag grow
// without bound, which drives the share towards 1.
const clientBoundFraction = 0.9

// clientBound describes a client-bound run, or returns "" when the send lag
// p99 is within clientBoundFraction of the latency p99 (both ms).
func clientBound(lagP99, latencyP99 float64) string {
	if lagP99 <= clientBoundFraction*latencyP99 {
		return ""
	}
	return fmt.Sprintf("client_bound: send lag p99 %.3f ms exceeds %.0f%% of latency p99 %.3f ms",
		lagP99, 100*clientBoundFraction, latencyP99)
}

// check runs the output checks and returns every failure.
func (p *pass) check() []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	f, c := p.f, p.final
	srv, rej, errored, userServed := p.totals()
	if p.wrongCount > 0 {
		fail("%d served responses failed output checks, e.g. %v", p.wrongCount, p.wrong)
	}
	if errored > 0 {
		fail("%d requests hit a transport error, a timeout or an unexpected status", errored)
	}
	if int64(srv) != c.backendServed {
		fail("client served %d, backends served %d", srv, c.backendServed)
	}
	if float64(c.backendServed) != c.admits {
		fail("backends served %d, admission admitted %.0f", c.backendServed, c.admits)
	}
	switch f.w.layer {
	case "l7":
		if rej != c.rejected {
			fail("client saw %d 503s, redirectors rejected %d", rej, c.rejected)
		}
	case "l4":
		if rej != c.dropped+c.expired {
			fail("client saw %d unanswered connections, redirectors dropped %d and expired %d",
				rej, c.dropped, c.expired)
		}
		if srv != c.forwarded {
			fail("client served %d, redirectors forwarded %d", srv, c.forwarded)
		}
	}
	// Every served request must come from a backend of an owner its
	// principal may use. At Layer 7 each response names its backend and
	// exchange.doL7 checks it; a Layer-4 reply does not, so the counts are
	// checked: no set of owners may have served more requests than the
	// principals allowed on at least one of them were served. With equal
	// totals (checked above) this is Hall's condition, which holds exactly
	// when the served requests can be assigned to allowed backends.
	for set := 1; set < 1<<len(f.names); set++ {
		var byOwners, byUsers int64
		var owners []string
		for k, name := range f.names {
			if set&(1<<k) != 0 {
				byOwners += c.ownerServed[k]
				owners = append(owners, name)
			}
		}
		for u, row := range f.allowed {
			for k, ok := range row {
				if ok && set&(1<<k) != 0 {
					byUsers += userServed[u]
					break
				}
			}
		}
		if byOwners > byUsers {
			fail("backends of %v served %d requests, principals allowed on them were served %d",
				owners, byOwners, byUsers)
			break
		}
	}
	if c.mixedVersion != 0 {
		fail("%d mixed-version windows", c.mixedVersion)
	}
	if c.overCeil != 0 {
		fail("%d (principal, window) pairs admitted above their ceiling", c.overCeil)
	}
	return errs
}

// cpuPerRequest is the process CPU over the measured span in microseconds,
// divided by the requests attempted in it.
func (p *pass) cpuPerRequest() float64 {
	return ratio(float64((p.end.use.cpu - p.begin.use.cpu).Microseconds()), float64(p.tally().attempted))
}
