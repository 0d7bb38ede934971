// Mesh is the in-process transport used by cdn.Network, tests and the chaos
// harness: it routes Messages straight into the target Replicator's Receive,
// with a pluggable intercept hook where the chaos injectors (internal/chaos,
// Links) decide each message's fate — deliver, duplicate, drop, fail or
// delay. A process-external transport would implement fleet.Transport over
// the wire; everything above this interface is transport-agnostic.
package fleet

import (
	"fmt"
	"sync"
	"time"
)

// Fate is an intercept decision for one message.
type Fate uint8

const (
	// FateDeliver passes the message through unchanged.
	FateDeliver Fate = iota
	// FateDup delivers the message twice (exercises merge idempotency).
	FateDup
	// FateDrop silently discards the message, reporting success to the
	// sender (exercises anti-entropy repair).
	FateDrop
	// FateFail discards the message and reports an error, so the sender
	// retries with backoff (exercises the retry/patience path).
	FateFail
)

// Intercept inspects one in-flight message and decides its fate, optionally
// imposing a delivery delay: the sender is told the message went out, and
// the mesh holds it until a Step at or after its due time, like a slow link.
// A nil Intercept delivers everything immediately.
type Intercept func(from, to string, msg *Message) (Fate, time.Duration)

// Mesh is an in-process Transport connecting a set of replicators.
type Mesh struct {
	mu        sync.Mutex // guards everything below; not held across Receive
	nodes     map[string]*Replicator
	intercept Intercept
	now       time.Time // the latest Step's time, from which delays count
	held      []heldMessage
}

// heldMessage is one delayed delivery, in send order.
type heldMessage struct {
	due    time.Time
	to     *Replicator
	msg    *Message
	copies int
}

// NewMesh creates an empty mesh.
func NewMesh() *Mesh {
	return &Mesh{nodes: make(map[string]*Replicator)}
}

// Attach registers a replicator under its node name.
func (m *Mesh) Attach(r *Replicator) {
	m.mu.Lock()
	m.nodes[r.Name()] = r
	m.mu.Unlock()
}

// SetIntercept installs (or clears, with nil) the fault-injection hook.
func (m *Mesh) SetIntercept(ic Intercept) {
	m.mu.Lock()
	m.intercept = ic
	m.mu.Unlock()
}

// Bind returns a Transport view of the mesh for one sender, so each
// replicator's messages carry their true origin through the intercept hook.
func (m *Mesh) Bind(from string) Transport {
	return boundTransport{mesh: m, from: from}
}

type boundTransport struct {
	mesh *Mesh
	from string
}

func (b boundTransport) Send(to string, msg *Message) error {
	return b.mesh.send(b.from, to, msg)
}

// Step moves the mesh's time to now and delivers, in send order, every held
// message that has come due; a target that is down by then loses it. Whoever
// steps the replicators steps the mesh first, with the same time.
func (m *Mesh) Step(now time.Time) {
	m.mu.Lock()
	m.now = now
	var due []heldMessage
	keep := m.held[:0]
	for _, h := range m.held {
		if h.due.After(now) {
			keep = append(keep, h)
		} else {
			due = append(due, h)
		}
	}
	m.held = keep
	m.mu.Unlock()
	for _, h := range due {
		_ = deliver(h.to, h.msg, h.copies) // the sender was told it went out long ago
	}
}

// deliver hands the target one message copies times.
func deliver(to *Replicator, msg *Message, copies int) error {
	for ; copies > 0; copies-- {
		if err := to.Receive(msg); err != nil {
			return err
		}
	}
	return nil
}

// send routes one message through the intercept to the target's Receive.
func (m *Mesh) send(from, to string, msg *Message) error {
	m.mu.Lock()
	target, ic := m.nodes[to], m.intercept
	m.mu.Unlock()
	if target == nil {
		return fmt.Errorf("fleet: unknown node %q", to)
	}
	fate, delay := FateDeliver, time.Duration(0)
	if ic != nil {
		fate, delay = ic(from, to, msg)
	}
	copies := 1
	switch fate {
	case FateDrop:
		return nil
	case FateFail:
		return fmt.Errorf("fleet: injected send failure %s->%s", from, to)
	case FateDup:
		copies = 2
	}
	if delay <= 0 {
		return deliver(target, msg, copies)
	}
	m.mu.Lock()
	m.held = append(m.held, heldMessage{due: m.now.Add(delay), to: target, msg: msg, copies: copies})
	m.mu.Unlock()
	return nil
}
