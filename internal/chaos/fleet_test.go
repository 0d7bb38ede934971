package chaos

import (
	"testing"
	"time"

	"botdetect/internal/fleet"
)

// faultLinks adds the message faults the seeded simulation schedules to
// Links' partitions: one-way cuts, one link delay, and budgets of silent
// drops, erroring sends and duplicated deliveries, spent in that order. The
// simulation is single-threaded, so the budgets are plain counters.
type faultLinks struct {
	*Links
	delay           time.Duration
	drop, fail, dup int
}

func newFaultLinks() *faultLinks { return &faultLinks{Links: NewLinks()} }

// partitionOneWay cuts the directed link from→to: messages silently vanish,
// exactly like an asymmetric network partition (from can still hear to).
func (l *faultLinks) partitionOneWay(from, to string) {
	l.mu.Lock()
	l.partitioned[[2]string{from, to}] = true
	l.mu.Unlock()
}

// clear heals every link and zeroes the delay and the budgets.
func (l *faultLinks) clear() {
	l.Heal()
	l.delay, l.drop, l.fail, l.dup = 0, 0, 0, 0
}

func (l *faultLinks) Intercept(from, to string, msg *fleet.Message) (fleet.Fate, time.Duration) {
	if fate, _ := l.Links.Intercept(from, to, msg); fate == fleet.FateDrop {
		return fate, 0
	}
	switch {
	case l.drop > 0:
		l.drop--
		return fleet.FateDrop, l.delay
	case l.fail > 0:
		l.fail--
		return fleet.FateFail, l.delay
	case l.dup > 0:
		l.dup--
		return fleet.FateDup, l.delay
	}
	return fleet.FateDeliver, l.delay
}

func TestLinksFates(t *testing.T) {
	l := newFaultLinks()
	msg := &fleet.Message{}
	if fate, _ := l.Intercept("a", "b", msg); fate != fleet.FateDeliver {
		t.Fatalf("transparent links delivered fate %v", fate)
	}
	l.partitionOneWay("a", "b")
	if fate, _ := l.Intercept("a", "b", msg); fate != fleet.FateDrop {
		t.Fatalf("cut link fate %v, want drop", fate)
	}
	if fate, _ := l.Intercept("b", "a", msg); fate != fleet.FateDeliver {
		t.Fatalf("one-way cut swallowed the reverse direction")
	}
	l.Heal()
	l.drop, l.fail, l.dup = 1, 1, 1
	fates := []fleet.Fate{}
	for i := 0; i < 4; i++ {
		f, _ := l.Intercept("a", "b", msg)
		fates = append(fates, f)
	}
	want := []fleet.Fate{fleet.FateDrop, fleet.FateFail, fleet.FateDup, fleet.FateDeliver}
	for i := range want {
		if fates[i] != want[i] {
			t.Fatalf("fates = %v, want %v", fates, want)
		}
	}
	l.delay = time.Millisecond
	if _, d := l.Intercept("a", "b", msg); d != time.Millisecond {
		t.Fatalf("delay = %v", d)
	}
	if n := l.CutMessages(); n != 1 {
		t.Fatalf("%d messages cut, want 1", n)
	}
	l.Partition([]string{"a"}, []string{"b", "c"})
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}, {"c", "a"}} {
		if fate, _ := l.Intercept(pair[0], pair[1], msg); fate != fleet.FateDrop {
			t.Fatalf("partition left %v connected", pair)
		}
	}
	if fate, _ := l.Intercept("b", "c", msg); fate != fleet.FateDeliver {
		t.Fatalf("partition cut a link within one side")
	}
}
