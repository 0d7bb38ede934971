// Package chaos is the fault-injection harness for overload and
// origin-failure experiments: it wraps an origin handler with switchable
// latency spikes, 5xx bursts and connection resets — the failure modes the
// overload-resilience machinery (admission control, circuit breaker, memory
// budget) exists to absorb. Every fault is driven by atomics so a bench or
// test can flip failure modes while requests are in flight. A clock stepping
// under the engine needs no harness: advance the clock.Virtual it runs on.
package chaos

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"botdetect/internal/clock"
)

// Origin wraps an origin handler with injectable faults. The zero value (via
// NewOrigin) is transparent: no latency, no failures.
type Origin struct {
	inner http.Handler
	clk   clock.Clock // what injected latency waits on

	latencyNanos   atomic.Int64 // added before every response
	failStatus     atomic.Int32 // status to fail with while failRemaining > 0
	failRemaining  atomic.Int64 // requests left in the current failure burst (-1 = until Heal)
	resetRemaining atomic.Int64 // requests left to kill mid-response

	served atomic.Int64
	failed atomic.Int64
	reset  atomic.Int64
}

// NewOrigin wraps inner with the fault switchboard. Injected latency passes
// on clk; a nil clk uses the wall clock.
func NewOrigin(inner http.Handler, clk clock.Clock) *Origin {
	if clk == nil {
		clk = clock.System
	}
	return &Origin{inner: inner, clk: clk}
}

// SetLatency adds d of synthetic origin latency to every subsequent request
// (0 clears the spike).
func (o *Origin) SetLatency(d time.Duration) { o.latencyNanos.Store(int64(d)) }

// FailWith makes the next n requests answer with the given status code
// instead of reaching the inner handler; n < 0 fails every request until
// Heal.
func (o *Origin) FailWith(status, n int) {
	o.failStatus.Store(int32(status))
	o.failRemaining.Store(int64(n))
}

// ResetNext makes the next n requests die mid-response: headers and a
// partial body go out, then the connection is aborted — the shape of an
// origin process being killed under load.
func (o *Origin) ResetNext(n int) { o.resetRemaining.Store(int64(n)) }

// Heal clears every injected fault.
func (o *Origin) Heal() {
	o.latencyNanos.Store(0)
	o.failRemaining.Store(0)
	o.resetRemaining.Store(0)
}

// Served, Failed and Reset return cumulative request counts by outcome.
func (o *Origin) Served() int64 { return o.served.Load() }
func (o *Origin) Failed() int64 { return o.failed.Load() }
func (o *Origin) Reset() int64  { return o.reset.Load() }

// takeBudget decrements a burst counter, reporting whether this request is
// inside the burst (-1 means an unbounded burst).
func takeBudget(c *atomic.Int64) bool {
	for {
		n := c.Load()
		if n == 0 {
			return false
		}
		if n < 0 {
			return true
		}
		if c.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// ServeHTTP implements http.Handler.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := o.latencyNanos.Load(); d > 0 {
		if o.clk.Sleep(r.Context(), time.Duration(d)) != nil {
			return // the caller hung up mid-spike: nobody is left to answer
		}
	}
	if takeBudget(&o.failRemaining) {
		o.failed.Add(1)
		status := int(o.failStatus.Load())
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, "chaos: injected origin failure", status)
		return
	}
	if takeBudget(&o.resetRemaining) {
		o.reset.Add(1)
		// Commit a healthy-looking response, leak a partial body, then abort
		// the connection: exactly what a mid-stream origin death looks like
		// to the proxy's transport.
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("<html><head><title>partial"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	o.served.Add(1)
	o.inner.ServeHTTP(w, r)
}

// Control returns an http.HandlerFunc that drives the switchboard remotely —
// the CI chaos smoke boots a chaos origin as a separate process and flips
// faults over HTTP. Parameters (query or form): latency_ms, fail_status,
// fail_count, reset_count; POST /...?heal=1 clears everything. Responses
// report the cumulative outcome counters.
func (o *Origin) Control() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if q.Get("heal") != "" {
			o.Heal()
		}
		if v := q.Get("latency_ms"); v != "" {
			ms, _ := strconv.Atoi(v)
			o.SetLatency(time.Duration(ms) * time.Millisecond)
		}
		if v := q.Get("fail_count"); v != "" {
			n, _ := strconv.Atoi(v)
			status, _ := strconv.Atoi(q.Get("fail_status"))
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			o.FailWith(status, n)
		}
		if v := q.Get("reset_count"); v != "" {
			n, _ := strconv.Atoi(v)
			o.ResetNext(n)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "served=%d failed=%d reset=%d\n", o.Served(), o.Failed(), o.Reset())
	}
}
