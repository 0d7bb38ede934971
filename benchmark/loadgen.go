package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/rng"
)

// This file is the load generator: exactly two keep-alive connections, each
// driven by one goroutine, in two regimes. The closed loop keeps both
// connections busy back to back and measures capacity (throughput, server
// CPU per request). The open loop sends seeded Poisson arrivals at a fixed
// rate whether or not earlier ones have finished, and times each from the
// instant it was due — so a stall is charged to every arrival it delays.

const (
	connections = 2
	// openDeadline is how long after its due time an open-loop arrival may
	// finish before it counts as missed. A missed arrival fails the rate
	// (loadgen.max_rate_ok), not the run: its answer was still verified, and
	// on a shared virtual machine the hypervisor now and then parks a CPU —
	// the server's or the generator's — for longer than this.
	openDeadline = time.Second
)

// worker is one connection and everything its goroutine records. Only the
// requests counter is read by anyone else while the worker runs.
type worker struct {
	conn    *wireConn
	chk     *checker
	scratch []byte // the workload's per-connection buffer (request identities)

	requests atomic.Int64 // completed, verified requests

	attempted int64
	failed    int64
	missed    int64 // open-loop arrivals that blew openDeadline
	bytesRecv int64 // body bytes received on verified responses
	bytesOrig int64 // origin body bytes behind those responses

	// Open-loop bookkeeping: due is the pending arrival's due time until its
	// first request has been sent.
	open    bool
	due     time.Time
	pageLat []float64 // µs, due → last byte, instrumented pages
	ttfb    []float64 // µs, due → first body byte, instrumented pages
	objLat  []float64 // µs, every other request (send → last byte unless first of an arrival)
	late    []float64 // µs, due → actually sent
}

func newWorker(addr, host, prefix string) (*worker, error) {
	conn, err := dialWire(addr, host)
	if err != nil {
		return nil, err
	}
	return &worker{conn: conn, chk: newChecker(prefix)}, nil
}

// exchange sends one GET and verifies the response. want is nil for
// instrumentation paths, which are checked by shape instead. The returned
// response's body is valid until the worker's next exchange.
func (w *worker) exchange(path string, identity []byte, referer string, want *expected) (wireResp, bool) {
	w.attempted++
	sent := time.Now()
	base := sent
	first := w.open && !w.due.IsZero()
	if first {
		base = w.due
		w.late = append(w.late, us(sent.Sub(base)))
		w.due = time.Time{}
	}
	resp, err := w.conn.get(path, identity, referer)
	if err != nil {
		w.failed++
		w.chk.fail("transport: " + firstLine(err.Error()))
		return resp, false
	}
	var ok bool
	if want == nil {
		ok = w.chk.beacon(path, &resp)
	} else {
		ok = w.chk.origin(*want, &resp)
	}
	if !ok {
		w.failed++
		return resp, false
	}
	w.bytesRecv += int64(len(resp.body))
	if want != nil {
		w.bytesOrig += int64(len(want.body))
	}
	if w.open {
		lat := resp.done.Sub(base)
		if want != nil && want.instrumented {
			w.pageLat = append(w.pageLat, us(lat))
			if !resp.firstByte.IsZero() {
				w.ttfb = append(w.ttfb, us(resp.firstByte.Sub(base)))
			}
		} else {
			w.objLat = append(w.objLat, us(lat))
		}
		if first && lat > openDeadline {
			w.missed++
		}
	}
	w.requests.Add(1)
	return resp, true
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// unit performs the work of arrival k on worker w: one page view, or one
// request, depending on the workload.
type unit func(w *worker, k int64)

// loadgen drives the workers through phases against one server process.
type loadgen struct {
	workers []*worker
	next    atomic.Int64 // arrival counter shared by all phases
	pid     int          // server pid, for CPU accounting
	genCPUs int          // CPUs the generator may use, for cpu_share
}

func (g *loadgen) completed() int64 {
	var n int64
	for _, w := range g.workers {
		n += w.requests.Load()
	}
	return n
}

// each runs fn once per worker, concurrently, and waits for all of them.
func (g *loadgen) each(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// runCount performs n arrivals back to back (warm-up, and the fixed-size
// closed phases). A budget above zero is a wall-clock guard: once it has
// passed no further arrival is started, so that a machine running at a
// fraction of its speed shortens the run's work and not its deadline.
func (g *loadgen) runCount(n int64, budget time.Duration, do unit) {
	limit := g.next.Load() + n
	t0 := time.Now()
	g.each(func(w *worker) {
		for budget <= 0 || time.Since(t0) < budget {
			k := g.next.Add(1) - 1
			if k >= limit {
				g.next.Add(-1)
				return
			}
			do(w, k)
		}
	})
}

// closedSlice is what one closed-loop slice measured.
type closedSlice struct {
	arrivals    int64
	requests    int64
	seconds     float64
	reqPerSec   float64
	cpuUsPerReq float64 // server CPU
	genCPUShare float64 // generator CPU over wall, per generator CPU in use
}

// runClosed performs count arrivals (fewer if budget runs out) with every
// connection busy back to back, and reads the request and CPU counters on
// either side.
func (g *loadgen) runClosed(count int64, budget time.Duration, do unit) closedSlice {
	genCPU0, _ := cpuSeconds(os.Getpid())
	srvCPU0, _ := cpuSeconds(g.pid) // a vanished server shows up as transport failures
	first := g.next.Load()
	req0, t0 := g.completed(), time.Now()
	g.runCount(count, budget, do)
	dt := time.Since(t0).Seconds()
	n := g.completed() - req0
	srvCPU1, _ := cpuSeconds(g.pid)
	genCPU1, _ := cpuSeconds(os.Getpid())

	res := closedSlice{arrivals: g.next.Load() - first, requests: n, seconds: dt}
	if n > 0 && dt > 0 {
		res.reqPerSec = float64(n) / dt
		res.cpuUsPerReq = (srvCPU1 - srvCPU0) * 1e6 / float64(n)
		cpus := g.genCPUs
		if cpus > connections {
			cpus = connections
		}
		if cpus < 1 {
			cpus = 1
		}
		res.genCPUShare = (genCPU1 - genCPU0) / dt / float64(cpus)
	}
	return res
}

// openResult is what one open-loop phase measured (all in µs).
type openResult struct {
	rate     float64
	arrivals int64
	pageLat  []float64
	ttfb     []float64
	objLat   []float64
	late     []float64
	missed   int64
	failed   int64
	// backlogUs is how late each connection's last tenth of arrivals was
	// sent, at the median: a queue that keeps growing shows up here.
	backlogUs float64
}

// runOpen sends n seeded Poisson arrivals at the given rate. Each worker
// takes the next arrival, sleeps until it is due (or starts at once when
// already late) and performs it; latency is measured from the due time.
// Arrivals not started when budget has passed are dropped (see runCount).
func (g *loadgen) runOpen(rate float64, n int64, budget time.Duration, src *rng.Source, do unit) openResult {
	if n < 1 {
		n = 1
	}
	offsets := make([]time.Duration, n)
	var t float64
	for i := range offsets {
		t += src.Exp(1 / rate)
		offsets[i] = time.Duration(t * float64(time.Second))
	}
	res := openResult{rate: rate}
	for _, w := range g.workers {
		w.open = true
		w.pageLat, w.ttfb, w.objLat, w.late = w.pageLat[:0], w.ttfb[:0], w.objLat[:0], w.late[:0]
		res.failed -= w.failed
		res.missed -= w.missed
	}
	first := g.next.Load()
	start := time.Now().Add(5 * time.Millisecond)
	g.each(func(w *worker) {
		for time.Since(start) < budget {
			k := g.next.Add(1) - 1
			i := k - first
			if i >= n {
				g.next.Add(-1)
				return
			}
			due := start.Add(offsets[i])
			sleepUntil(due)
			w.due = due
			do(w, k)
		}
	})
	var lateTail []float64
	for _, w := range g.workers {
		w.open = false
		w.due = time.Time{}
		res.pageLat = append(res.pageLat, w.pageLat...)
		res.ttfb = append(res.ttfb, w.ttfb...)
		res.objLat = append(res.objLat, w.objLat...)
		res.late = append(res.late, w.late...)
		lateTail = append(lateTail, w.late[len(w.late)-len(w.late)/10:]...)
		res.failed += w.failed
		res.missed += w.missed
	}
	res.arrivals = g.next.Load() - first
	res.backlogUs = median(lateTail)
	return res
}

// totals sums the workers' counters and failure reasons.
func (g *loadgen) totals() (attempted, failed, recv, orig int64, reasons map[string]int64) {
	reasons = make(map[string]int64)
	for _, w := range g.workers {
		attempted += w.attempted
		failed += w.failed
		recv += w.bytesRecv
		orig += w.bytesOrig
		mergeReasons(reasons, w.chk.reasons)
	}
	return
}

func (g *loadgen) close() {
	for _, w := range g.workers {
		w.conn.close()
	}
}

func newLoadgen(addr, host, prefix string, pid, genCPUs int) (*loadgen, error) {
	g := &loadgen{pid: pid, genCPUs: genCPUs}
	for i := 0; i < connections; i++ {
		w, err := newWorker(addr, host, prefix)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("connection %d: %w", i, err)
		}
		g.workers = append(g.workers, w)
	}
	return g, nil
}
