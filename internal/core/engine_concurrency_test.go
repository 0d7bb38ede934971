package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/logfmt"
	"botdetect/internal/session"
)

// TestEngineConcurrentPipeline hammers every hot entry point of the engine —
// ObserveRequestQuiet, HandleBeacon (all beacon kinds), Classify, Session,
// Sessions, Stats — from parallel goroutines on OVERLAPPING session keys
// while two more goroutines sweep idle sessions and read. Run with -race;
// the final consistency checks catch lost updates.
func TestEngineConcurrentPipeline(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	e := New(Config{Seed: 42, Clock: vc, MinRequests: 5})
	now := vc.Now()

	const (
		workers = 8
		iters   = 300
		nKeys   = 12 // fewer keys than workers*2: heavy shard contention
	)
	keys := make([]session.Key, nKeys)
	instr := make([]servedPage, nKeys)
	for i := range keys {
		keys[i] = session.Key{IP: fmt.Sprintf("10.9.0.%d", i), UserAgent: "Firefox/1.5"}
		_, instr[i] = instrumentPage(e, keys[i].IP, keys[i].UserAgent, "/", []byte("<html><head></head><body></body></html>"))
	}
	prefix := e.Config().BeaconPrefix

	var aux, writers sync.WaitGroup
	stop := make(chan struct{})
	// Sweeper: the amortized per-shard step, looping until the writers
	// finish, so sweeps genuinely race the hot path for the whole run.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.SweepStep(now)
			}
		}
	}()
	// Readers: snapshots and stats.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Sessions()
				e.Stats()
				e.SessionCount()
			}
		}
	}()
	for g := 0; g < workers; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				k := keys[(g+i)%nKeys]
				in := instr[(g+i)%nKeys]
				e.ObserveRequestQuiet(logfmt.Entry{
					Time: now, ClientIP: k.IP, UserAgent: k.UserAgent,
					Method: "GET", Path: fmt.Sprintf("/p%d.html", i), Status: 200, Bytes: 100,
				})
				switch i % 5 {
				case 0:
					e.HandleBeacon(k.IP, k.UserAgent, in.CSSPath)
				case 1:
					e.HandleBeacon(k.IP, k.UserAgent, in.ScriptPath)
				case 2:
					e.HandleBeacon(k.IP, k.UserAgent, prefix+"/js/"+in.Issued.ScriptToken+".gif?ua="+session.NormalizeUA(k.UserAgent))
				case 3:
					e.HandleBeacon(k.IP, k.UserAgent, prefix+"/"+in.Issued.Key+".jpg")
				case 4:
					e.Classify(k)
					e.Session(k)
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	aux.Wait()

	// Nothing was idle (the virtual clock never advanced), so every session
	// must survive and every observed request must be accounted for.
	if e.SessionCount() != nKeys {
		t.Fatalf("SessionCount = %d, want %d", e.SessionCount(), nKeys)
	}
	var total int64
	for _, s := range e.Sessions() {
		total += int64(s.Counts.Total)
	}
	if total != workers*iters {
		t.Fatalf("total observed = %d, want %d", total, workers*iters)
	}
	st := e.Stats()
	beacons := st.CSSBeacons + st.ScriptServes + st.ExecBeacons +
		st.MouseBeacons + st.ReplayBeacons + st.DecoyBeacons + st.UnknownBeacons
	// 4 of 5 branches issue a beacon, and each page's script was downloaded
	// once up front to learn its key.
	want := int64(workers*iters*4/5 + nKeys)
	if beacons != want {
		t.Fatalf("beacon stats sum = %d, want %d (stats %+v)", beacons, want, st)
	}
	// Each real key is consumed at most once across all goroutines.
	if st.MouseBeacons > int64(nKeys) {
		t.Fatalf("MouseBeacons = %d, want <= %d (real keys are single-use)", st.MouseBeacons, nKeys)
	}
}

// TestEngineConcurrentExpiryDelivers checks that sessions expired by the
// per-shard sweeps are reported exactly once through OnSessionEnd even when
// expiry races with observation of other keys.
func TestEngineConcurrentExpiryDelivers(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	var mu sync.Mutex
	ended := map[session.Key]int{}
	e := New(Config{Seed: 7, Clock: vc, SessionIdleTimeout: time.Hour,
		OnSessionEnd: func(cs ClassifiedSession) {
			mu.Lock()
			ended[cs.Snapshot.Key]++
			mu.Unlock()
		}})
	start := vc.Now()
	const old = 64
	for i := 0; i < old; i++ {
		e.ObserveRequestQuiet(logfmt.Entry{Time: start, ClientIP: fmt.Sprintf("10.10.0.%d", i), UserAgent: "UA", Method: "GET", Path: "/a.html", Status: 200})
	}
	later := start.Add(2 * time.Hour)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.ObserveRequestQuiet(logfmt.Entry{Time: later, ClientIP: fmt.Sprintf("10.11.%d.%d", g, i%16), UserAgent: "UA", Method: "GET", Path: "/b.html", Status: 200})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < e.ShardCount(); i++ {
			e.SweepStep(later)
		}
	}()
	wg.Wait()
	sweepAll(e, later) // finish whatever the amortized pass raced past

	mu.Lock()
	defer mu.Unlock()
	expired := 0
	for k, n := range ended {
		if n != 1 {
			t.Fatalf("session %v reported %d times", k, n)
		}
		expired++
	}
	if expired != old {
		t.Fatalf("expired sessions reported = %d, want %d", expired, old)
	}
	if e.SessionCount() != 4*16 {
		t.Fatalf("active = %d, want %d", e.SessionCount(), 4*16)
	}
}
