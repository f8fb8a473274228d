package main

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// record is one request of a load phase.
type record struct {
	ok       bool
	id       uint64
	path     string
	virtMS   float64       // node-reported virtual latency
	svc      time.Duration // send → response read
	fromDue  time.Duration // open loop: due time → response read
	late     time.Duration // open loop: how late the send left an idle connection
	lateSeen bool          // the connection was idle at the due time
	reqB     int
	respB    int
	err      string
}

// phase is one load phase's records, in completion order per worker.
type phase struct {
	name    string
	records []record
	elapsed time.Duration
}

func fromOutcome(o outcome) record {
	return record{ok: o.ok, id: o.resp.RequestID, path: o.resp.Path, virtMS: o.resp.LatencyMS,
		reqB: o.reqBytes, respB: o.respLen, err: o.err}
}

// runList sends a fixed list of calls over every connection, each call
// once (the warm-up pass).
func runList(n *node, name string, calls []call) phase {
	var idx atomic.Int64
	out := make([]record, len(calls))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iv := &invoker{n: n}
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				t0 := time.Now()
				o := iv.invoke(calls[i])
				r := fromOutcome(o)
				r.svc = time.Since(t0)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return phase{name: name, records: out, elapsed: time.Since(start)}
}

// closedLoop keeps every connection busy until count calls are
// answered: each connection sends its next call as soon as the previous
// one is answered. A fixed count, not a fixed time, keeps the work of a
// run (and so the server's memory growth) the same on a slow run.
func closedLoop(n *node, g *generator, count int) phase {
	per := make([][]record, conns)
	var left atomic.Int64
	left.Store(int64(count))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			iv := &invoker{n: n}
			for left.Add(-1) >= 0 {
				c := g.next()
				t0 := time.Now()
				o := iv.invoke(c)
				r := fromOutcome(o)
				r.svc = time.Since(t0)
				per[w] = append(per[w], r)
			}
		}(w)
	}
	wg.Wait()
	return phase{name: "closed", records: flatten(per), elapsed: time.Since(start)}
}

// poissonSchedule returns the due offsets of Poisson arrivals at rate
// per second over d.
func poissonSchedule(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return due
		}
		due = append(due, off)
	}
}

// openLoop sends calls[i] at due[i] over at most conns connections and
// times each from its due time, so a stall that delays later sends is
// charged to them. A connection still busy at a request's due time sends
// it as soon as it frees (the wait is queueing, charged to the request);
// a connection idle at the due time sleeps until it, and any overshoot
// is the generator's own lateness.
func openLoop(n *node, calls []call, due []time.Duration) phase {
	// A collection in the client mid-phase would delay sends; the
	// phase's garbage is a few MB, so collect once before and not during.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var idx atomic.Int64
	out := make([]record, len(calls))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Sleep on a dedicated thread with 1 ns timer slack: the Go
			// timer wakes up to ~1 ms late, as much as a hot request's
			// whole service time.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack(1)
			iv := &invoker{n: n}
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				dueAt := start.Add(due[i])
				idle := time.Now().Before(dueAt)
				if idle {
					sleepUntil(dueAt)
				}
				t0 := time.Now()
				o := iv.invoke(calls[i])
				end := time.Now()
				r := fromOutcome(o)
				r.svc = end.Sub(t0)
				r.fromDue = end.Sub(dueAt)
				if idle {
					r.late, r.lateSeen = t0.Sub(dueAt), true
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return phase{name: "open", records: out, elapsed: time.Since(start)}
}

// setTimerSlack sets the calling thread's timer slack in nanoseconds.
func setTimerSlack(ns uintptr) {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, ns, 0)
}

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func flatten(per [][]record) []record {
	var out []record
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// okCount is the number of successful records.
func (p phase) okCount() int {
	n := 0
	for _, r := range p.records {
		if r.ok {
			n++
		}
	}
	return n
}

// durations extracts one duration field of the successful records, in
// milliseconds.
func (p phase) ms(field func(r record) time.Duration) []float64 {
	out := make([]float64, 0, len(p.records))
	for _, r := range p.records {
		if r.ok {
			out = append(out, msOf(field(r)))
		}
	}
	return out
}

// lateness returns the generator lateness samples in milliseconds.
func (p phase) lateness() []float64 {
	var out []float64
	for _, r := range p.records {
		if r.lateSeen {
			out = append(out, msOf(r.late))
		}
	}
	return out
}
