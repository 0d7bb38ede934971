// Package clock abstracts time so the detector, session tracker, policy
// engine, and key store can run identically against the wall clock (in the
// live proxy) and against a virtual clock (in the CoDeeN-scale simulator and
// in tests).
//
// The virtual clock also provides a simple discrete-event scheduler used by
// the workload driver to interleave thousands of agents without real
// sleeping.
//
// Waiting goes through the clock too. Real.Sleep blocks on a timer or the
// caller's context, whichever ends first. Virtual.Sleep does not block: a
// virtual clock serves single-driver simulations, where nobody else would
// move the time a sleeper is waiting for — the sleeper's wait is the passage
// of time — so it advances the clock by the duration and returns. Code that
// backs off, throttles or injects latency through its Clock therefore runs
// on the wall in a live proxy and on arithmetic in a simulation, unchanged.
package clock

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Clock supplies the current time to time-dependent components, and is what
// they wait on.
type Clock interface {
	// Now returns the current time according to this clock.
	Now() time.Time
	// Sleep lets d pass on this clock. It returns early with ctx's error when
	// ctx ends first, nil otherwise.
	Sleep(ctx context.Context, d time.Duration) error
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock: it blocks for d or until ctx ends.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// System is a shared wall-clock instance for convenience.
var System Clock = Real{}

// Virtual is a manually advanced clock with an embedded event queue. It is
// safe for concurrent use.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	events eventQueue
	seq    uint64
}

// NewVirtual returns a virtual clock starting at the given time. If start is
// the zero time, a fixed epoch (2005-01-01 UTC, the first month of the
// paper's Figure 3 timeline) is used so simulations have a stable calendar.
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = time.Date(2005, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock: unless ctx has already ended it advances the clock
// by d (see the package doc) without running scheduled events.
func (v *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v.Advance(d)
	return nil
}

// Advance moves the clock forward by d without running scheduled events.
// Negative durations are ignored.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// Set moves the clock to t if t is not before the current time.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// Event is a scheduled callback. The callback runs with the clock already
// advanced to the event's time.
type Event struct {
	At time.Time
	Fn func(now time.Time)

	seq   uint64
	index int
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At.Equal(q[j].At) {
		return q[i].seq < q[j].seq
	}
	return q[i].At.Before(q[j].At)
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Schedule registers fn to run when the clock reaches the current time plus
// delay (clamped to now for non-positive delays). Events scheduled for the
// same instant run in scheduling order.
func (v *Virtual) Schedule(delay time.Duration, fn func(now time.Time)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	at := v.now
	if delay > 0 {
		at = at.Add(delay)
	}
	v.seq++
	heap.Push(&v.events, &Event{At: at, Fn: fn, seq: v.seq})
}

// ScheduleAt registers fn to run when the clock reaches t. Times in the past
// run at the current time.
func (v *Virtual) ScheduleAt(t time.Time, fn func(now time.Time)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.Before(v.now) {
		t = v.now
	}
	v.seq++
	heap.Push(&v.events, &Event{At: t, Fn: fn, seq: v.seq})
}

// Pending returns the number of scheduled events that have not yet run.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.events)
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	if len(v.events) == 0 {
		v.mu.Unlock()
		return false
	}
	e := heap.Pop(&v.events).(*Event)
	if e.At.After(v.now) {
		v.now = e.At
	}
	now := v.now
	v.mu.Unlock()
	e.Fn(now)
	return true
}

// RunUntil executes events in order until the event queue is empty or the
// next event lies beyond deadline. The clock ends at deadline if it was
// reached, otherwise at the time of the last executed event. It returns the
// number of events executed.
func (v *Virtual) RunUntil(deadline time.Time) int {
	count := 0
	for {
		v.mu.Lock()
		if len(v.events) == 0 || v.events[0].At.After(deadline) {
			if deadline.After(v.now) {
				v.now = deadline
			}
			v.mu.Unlock()
			return count
		}
		e := heap.Pop(&v.events).(*Event)
		if e.At.After(v.now) {
			v.now = e.At
		}
		now := v.now
		v.mu.Unlock()
		e.Fn(now)
		count++
	}
}

// Drain executes events until the queue is empty or maxEvents have run
// (maxEvents <= 0 means no limit). It returns the number of events executed.
// Events may schedule further events; Drain keeps going until quiescence.
func (v *Virtual) Drain(maxEvents int) int {
	count := 0
	for {
		if maxEvents > 0 && count >= maxEvents {
			return count
		}
		if !v.Step() {
			return count
		}
		count++
	}
}
