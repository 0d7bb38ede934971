package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRotateScriptsUnderServing hammers RotateScripts against concurrent
// page instrumentation and script downloads; the -race run of this test is
// what proves the epoch swap is safe under serving load.
func TestRotateScriptsUnderServing(t *testing.T) {
	e := New(Config{Seed: 11, ObfuscateJS: true})
	if e.ScriptVariants() <= 0 {
		t.Fatal("engine must compile a variant pool")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := fmt.Sprintf("10.5.0.%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, inst := instrumentPage(e, ip, "Firefox/1.5", []byte("<html><head></head><body></body></html>"))
				resp, ok := e.HandleBeacon(ip, "Firefox/1.5", inst.ScriptPath)
				if !ok || resp.Status != 200 {
					t.Errorf("script serve failed: ok=%v status=%d", ok, resp.Status)
					return
				}
				if !strings.Contains(string(resp.Body), "function __bd_f()") {
					t.Error("served script lost the handler definition across rotation")
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		e.RotateScripts()
	}
	close(stop)
	wg.Wait()
}

// TestRotateScriptsChangesBodies proves rotation actually refreshes the
// obfuscation: with the RNG pinned to the same variant pick and the same
// keys, the served body must differ across epochs.
func TestRotateScriptsChangesBodies(t *testing.T) {
	// A single-variant pool removes per-page variant picking from the
	// comparison: any body difference below comes from the epoch swap alone.
	a := New(Config{Seed: 13, ObfuscateJS: true, ScriptVariants: 1})
	b := New(Config{Seed: 13, ObfuscateJS: true, ScriptVariants: 1})
	b.RotateScripts()

	// Same engine seed, same single client, same first page: identical keys
	// on both engines; only the rotation epoch differs.
	_, instA := instrumentPage(a, "10.6.0.1", "Firefox/1.5", []byte("<html><head></head><body></body></html>"))
	_, instB := instrumentPage(b, "10.6.0.1", "Firefox/1.5", []byte("<html><head></head><body></body></html>"))
	if instA.Issued.Key != instB.Issued.Key {
		t.Fatal("test setup: keys must match for a body comparison")
	}
	respA, _ := a.HandleBeacon("10.6.0.1", "Firefox/1.5", instA.ScriptPath)
	respB, _ := b.HandleBeacon("10.6.0.1", "Firefox/1.5", instB.ScriptPath)
	if string(respA.Body) == string(respB.Body) {
		t.Fatal("rotation must refresh the obfuscated script bodies")
	}
}
