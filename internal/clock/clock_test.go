package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSleep pins what waiting means on each clock: the wall clock blocks for
// the duration or until the context ends, the virtual clock moves itself by
// the duration, and neither lets time pass for a caller who already gave up.
func TestSleep(t *testing.T) {
	gone, cancel := context.WithCancel(context.Background())
	cancel()

	if err := System.Sleep(context.Background(), time.Nanosecond); err != nil {
		t.Fatalf("Real.Sleep(1ns) = %v, want nil", err)
	}
	if err := System.Sleep(gone, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Real.Sleep on a cancelled context = %v, want context.Canceled", err)
	}

	v := NewVirtual(time.Time{})
	start := v.Now()
	if err := v.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatalf("Virtual.Sleep = %v, want nil", err)
	}
	if got := v.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("Virtual.Sleep(3s) moved the clock by %v", got)
	}
	if err := v.Sleep(gone, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Virtual.Sleep on a cancelled context = %v, want context.Canceled", err)
	}
	if got := v.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("a cancelled Virtual.Sleep moved the clock to +%v", got)
	}
}

func TestRealClockProgresses(t *testing.T) {
	a := System.Now()
	b := System.Now()
	if b.Before(a) {
		t.Fatal("real clock went backwards")
	}
}

func TestVirtualDefaultEpoch(t *testing.T) {
	v := NewVirtual(time.Time{})
	want := time.Date(2005, time.January, 1, 0, 0, 0, 0, time.UTC)
	if !v.Now().Equal(want) {
		t.Fatalf("default epoch = %v, want %v", v.Now(), want)
	}
}

func TestVirtualAdvance(t *testing.T) {
	start := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	v.Advance(90 * time.Minute)
	if got := v.Now(); !got.Equal(start.Add(90 * time.Minute)) {
		t.Fatalf("Advance: got %v", got)
	}
	v.Advance(-time.Hour)
	if got := v.Now(); !got.Equal(start.Add(90 * time.Minute)) {
		t.Fatal("negative Advance should be ignored")
	}
}

func TestScheduleOrdering(t *testing.T) {
	v := NewVirtual(time.Time{})
	var order []int
	v.Schedule(3*time.Second, func(time.Time) { order = append(order, 3) })
	v.Schedule(1*time.Second, func(time.Time) { order = append(order, 1) })
	v.Schedule(2*time.Second, func(time.Time) { order = append(order, 2) })
	if n := v.Drain(0); n != 3 {
		t.Fatalf("Drain ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestScheduleSameInstantFIFO(t *testing.T) {
	v := NewVirtual(time.Time{})
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		v.Schedule(time.Second, func(time.Time) { order = append(order, i) })
	}
	v.Drain(0)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestStepAdvancesClock(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	var at time.Time
	v.Schedule(5*time.Second, func(now time.Time) { at = now })
	if !v.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if !at.Equal(start.Add(5 * time.Second)) {
		t.Fatalf("callback saw time %v", at)
	}
	if !v.Now().Equal(start.Add(5 * time.Second)) {
		t.Fatalf("clock now %v", v.Now())
	}
	if v.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestScheduleAtPastRunsNow(t *testing.T) {
	v := NewVirtual(time.Time{})
	v.Advance(time.Hour)
	var ran time.Time
	v.Schedule(-time.Minute, func(now time.Time) { ran = now })
	v.Step()
	if !ran.Equal(v.Now()) {
		t.Fatalf("past event ran at %v, clock %v", ran, v.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	ran := 0
	for i := 1; i <= 10; i++ {
		v.Schedule(time.Duration(i)*time.Minute, func(time.Time) { ran++ })
	}
	n := v.RunUntil(start.Add(5 * time.Minute))
	if n != 5 || ran != 5 {
		t.Fatalf("RunUntil executed %d events (callbacks %d), want 5", n, ran)
	}
	if !v.Now().Equal(start.Add(5 * time.Minute)) {
		t.Fatalf("clock should rest at deadline, got %v", v.Now())
	}
	if n := v.Drain(0); n != 5 {
		t.Fatalf("expected 5 events pending, ran %d", n)
	}
}

func TestDrainWithCascadingEvents(t *testing.T) {
	v := NewVirtual(time.Time{})
	count := 0
	var spawn func(now time.Time)
	spawn = func(time.Time) {
		count++
		if count < 50 {
			v.Schedule(time.Second, spawn)
		}
	}
	v.Schedule(time.Second, spawn)
	n := v.Drain(0)
	if n != 50 || count != 50 {
		t.Fatalf("Drain ran %d events, callbacks %d, want 50", n, count)
	}
}

func TestDrainMaxEvents(t *testing.T) {
	v := NewVirtual(time.Time{})
	for i := 0; i < 10; i++ {
		v.Schedule(time.Second, func(time.Time) {})
	}
	if n := v.Drain(4); n != 4 {
		t.Fatalf("Drain(4) ran %d events", n)
	}
	if n := v.Drain(0); n != 6 {
		t.Fatalf("%d events left pending, want 6", n)
	}
}
