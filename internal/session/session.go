// Package session implements the session abstraction of the paper's
// evaluation: a stream of HTTP requests and responses associated with a
// unique <IP, User-Agent> pair that has not been idle for more than an hour
// (Section 3). The tracker accumulates the per-session request statistics
// consumed by the detector (Table 1 signals), by the feature extractor
// (Table 2 attributes) and by the policy engine (request rates, error
// shares), and records at which request number each detection signal first
// fired (Figure 2).
//
// The tracker is a shard.Table, the one the keystore keeps its clients in:
// sessions are distributed over a power-of-two number of independently locked
// shards by an FNV-1a hash of the session key, so concurrent request
// observation scales with cores instead of serialising on one global mutex. Every operation on a session — write or
// read — takes that one shard mutex for an index lookup and a few dozen
// stores.
//
// Each session is stored once: its record is the only copy, and a Snapshot
// is built from it on demand, under the shard mutex, for a reader that uses
// it (Peek, Each, and a session's end when the Evicted listener or FlushAll
// takes it). Readers therefore always see the session as of the last
// request, and there is no publication protocol to get wrong. A session that
// has made one request is held in a 64-byte newcomer record, promoted in
// place to the full sessionState record before anything else is written to
// it. The record is built for millions of
// concurrent sessions and holds no pointer, so the garbage collector never
// scans it: the key is the address inline (an IP address as its 16 bytes)
// and the User-Agent's interned handle (one canonical copy per distinct UA
// across all sessions), the LRU and index links are slot numbers, counters
// are saturating uint32s, signals are a fixed array, visited paths are a
// sorted set of 32-bit fingerprints whose first three sit in the record, times
// are Unix nanoseconds, and the decision layer's verdict is a 12-byte value in
// the record. The Table 2 attribute vector is not stored, not even in a
// snapshot: a reader that uses it derives it from the counters
// (Counts.Vector). Steady-state observation and Peek allocate nothing, and so
// does a session's end that no listener hears.
package session

import (
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/features"
	"botdetect/internal/intern"
	"botdetect/internal/logfmt"
	"botdetect/internal/shard"
)

// Key identifies a session.
type Key struct {
	// IP is the client IP address.
	IP string
	// UserAgent is the client's User-Agent request header value.
	UserAgent string
}

// Hash returns the FNV-1a hash of the key used for shard selection (with a
// separator folded in between the fields so boundary-shifted keys differ).
// It is exported so tests (and alternative stores sharded the same way) can
// verify the distribution.
func (k Key) Hash() uint64 {
	h := shard.HashString(k.IP)
	h = shard.MixSeparator(h)
	return shard.HashStringSeed(h, k.UserAgent)
}

// Signal is one of the detection signals a session can exhibit.
type Signal int

const (
	// SignalCSS means the session fetched the injected empty stylesheet.
	SignalCSS Signal = iota
	// SignalJS means the session fetched/executed the injected JavaScript
	// (the JS-execution beacon arrived).
	SignalJS
	// SignalMouse means a beacon carrying a valid key arrived: a mouse or
	// keyboard event was generated by the client.
	SignalMouse
	// SignalHidden means the session followed an invisible trap link.
	SignalHidden
	// SignalCaptcha means the session passed a CAPTCHA challenge.
	SignalCaptcha
	// SignalUAMismatch means the JavaScript-reported agent string did not
	// match the User-Agent header (forged User-Agent).
	SignalUAMismatch
	// SignalDecoy means the session fetched a decoy beacon URL (blind
	// embedded-object fetching without executing the script).
	SignalDecoy
	// SignalReplay means the session replayed an already consumed key.
	SignalReplay
	// SignalJSFile means the session downloaded the injected external
	// JavaScript file (whether or not it then executed it).
	SignalJSFile

	numSignals = int(SignalJSFile) + 1
)

// String returns the signal's short name.
func (s Signal) String() string {
	switch s {
	case SignalCSS:
		return "css"
	case SignalJS:
		return "js"
	case SignalMouse:
		return "mouse"
	case SignalHidden:
		return "hidden-link"
	case SignalCaptcha:
		return "captcha"
	case SignalUAMismatch:
		return "ua-mismatch"
	case SignalDecoy:
		return "decoy"
	case SignalReplay:
		return "replay"
	case SignalJSFile:
		return "js-file"
	default:
		return "unknown"
	}
}

// Counts are the per-session request counters from which the Table 2
// attributes and the policy-engine rates are derived. Counters are uint32
// with saturating adds: 4 billion requests per single session is beyond any
// session the idle timeout admits, and halving the counter block matters
// when millions of sessions are resident. Response bytes are not counted:
// no attribute, rate or rule reads them.
type Counts struct {
	// Total is the number of requests observed (instrumentation beacons are
	// excluded by the caller; see Tracker.ObserveQuiet).
	Total uint32
	// Head counts HEAD requests.
	Head uint32
	// Get counts GET requests.
	Get uint32
	// Post counts POST requests.
	Post uint32
	// HTML counts HTML page requests.
	HTML uint32
	// Image counts image requests.
	Image uint32
	// CGI counts dynamic/CGI requests.
	CGI uint32
	// Favicon counts favicon.ico requests.
	Favicon uint32
	// Embedded counts embedded-object requests (images, CSS, JS, favicon,
	// fonts, media).
	Embedded uint32
	// WithReferrer counts requests carrying a Referer header.
	WithReferrer uint32
	// UnseenReferrer counts requests whose Referer names a URL this session
	// has never itself requested.
	UnseenReferrer uint32
	// LinkFollowing counts requests whose Referer names a URL this session
	// previously requested (it followed a link from a page it saw).
	LinkFollowing uint32
	// Status2xx, Status3xx, Status4xx, Status5xx count response classes.
	Status2xx uint32
	Status3xx uint32
	Status4xx uint32
	Status5xx uint32
}

// satInc increments a saturating counter.
func satInc(v *uint32) {
	if *v != ^uint32(0) {
		*v++
	}
}

// Vector derives the Table 2 attribute vector from the counters in O(1): it
// is the one definition of the vector, and the readers that use it (the
// learned rows, the outcome buffer, experiments, the admin session view) call
// it. A session with zero requests yields the zero vector.
func (c Counts) Vector() features.Vector {
	var v features.Vector
	if c.Total == 0 {
		return v
	}
	total := float64(c.Total)
	v[features.HeadPct] = float64(c.Head) / total
	v[features.HTMLPct] = float64(c.HTML) / total
	v[features.ImagePct] = float64(c.Image) / total
	v[features.CGIPct] = float64(c.CGI) / total
	v[features.ReferrerPct] = float64(c.WithReferrer) / total
	v[features.UnseenReferrerPct] = float64(c.UnseenReferrer) / total
	v[features.EmbeddedObjPct] = float64(c.Embedded) / total
	v[features.LinkFollowingPct] = float64(c.LinkFollowing) / total
	v[features.Resp2xxPct] = float64(c.Status2xx) / total
	v[features.Resp3xxPct] = float64(c.Status3xx) / total
	v[features.Resp4xxPct] = float64(c.Status4xx) / total
	v[features.FaviconPct] = float64(c.Favicon) / total
	return v
}

// maxTrackedPaths is the bound on the per-session set of
// visited paths used for the unseen-referrer computation, shared by the
// online tracker and the offline Accumulator so both derive identical
// attribute vectors from the same request stream.
const maxTrackedPaths = 2048

// EvictReason classifies why a session ended, so operators can tell routine
// idle expiry from capacity pressure — and, under pressure, whether the
// victim carried detection evidence (a signal or verdict-relevant history)
// or was anonymous.
type EvictReason int

const (
	// EvictIdle: the session exceeded the idle timeout (normal end-of-life,
	// the paper's session boundary).
	EvictIdle EvictReason = iota
	// EvictCapacityAnonymous: a full shard evicted a session that had
	// accumulated no detection signals.
	EvictCapacityAnonymous
	// EvictCapacityEvidence: a full shard had no evidence-free victim within
	// the preference scan and evicted a session that HAD signals. A non-zero
	// rate here means the tracker is undersized for the evidence-bearing
	// population.
	EvictCapacityEvidence
	// EvictFlush: the session was ended by FlushAll (shutdown or experiment
	// teardown).
	EvictFlush

	numEvictReasons = int(EvictFlush) + 1
)

// String returns the reason's metric-label name.
func (r EvictReason) String() string {
	switch r {
	case EvictIdle:
		return "idle"
	case EvictCapacityAnonymous:
		return "capacity_anonymous"
	case EvictCapacityEvidence:
		return "capacity_evidence"
	case EvictFlush:
		return "flush"
	default:
		return "unknown"
	}
}

// EvictionStats are cumulative per-reason eviction counts.
type EvictionStats struct {
	Idle              int64
	CapacityAnonymous int64
	CapacityEvidence  int64
	Flush             int64
}

// evictScanLimit bounds how far enforceCapLocked walks up from the LRU tail
// looking for an evidence-free victim before falling back to strict LRU.
const evictScanLimit = 16

// request is one request as the counters read it, folded into 16 bits: its
// object's kind (the logfmt.Kind bits the counters read), its method class,
// whether it carried a Referer and its status class when the counters count
// it (2 to 5; 0 for any other). A newcomer record keeps its one request so.
type request uint16

const (
	reqKinds    = request(logfmt.KindHTML | logfmt.KindImage | logfmt.KindCGI | logfmt.KindFavicon | logfmt.KindEmbedded)
	reqHead     = request(1) << 5
	reqPost     = request(1) << 6
	reqReferrer = request(1) << 7
	reqStatus   = 8 // the status class's shift
)

// fold folds e, whose kind is k, into a request.
func fold(e logfmt.Entry, k logfmt.Kind) request {
	r := request(k) & reqKinds
	switch {
	case e.IsHead():
		r |= reqHead
	case e.Method == "POST" || e.Method == "post":
		r |= reqPost
	}
	if e.Referer != "" {
		r |= reqReferrer
	}
	if c := e.StatusClass(); c >= 2 && c <= 5 {
		r |= request(c) << reqStatus
	}
	return r
}

// observe applies one request to the counters. paths (bounded by
// maxTrackedPaths) backs the link-following vs unseen-referrer split: the
// referrer is matched against paths seen so far, then the request's own path
// is recorded. It is the single counting implementation behind both the
// tracker and Accumulator.Observe; k is e.Kind(), which the callers compute
// before taking any lock.
func (c *Counts) observe(e logfmt.Entry, k logfmt.Kind, paths *pathTable) {
	r := fold(e, k)
	c.add(r, r&reqReferrer != 0 && paths.contains(refererPath(e.Referer)))
	paths.insert(e.PathOnly())
}

// add counts the request r; followed says that its referrer names a path the
// session requested before.
func (c *Counts) add(r request, followed bool) {
	satInc(&c.Total)
	switch {
	case r&reqHead != 0:
		satInc(&c.Head)
	case r&reqPost != 0:
		satInc(&c.Post)
	default:
		satInc(&c.Get)
	}
	k := logfmt.Kind(r & reqKinds)
	if k&logfmt.KindHTML != 0 {
		satInc(&c.HTML)
	}
	if k&logfmt.KindImage != 0 {
		satInc(&c.Image)
	}
	if k&logfmt.KindCGI != 0 {
		satInc(&c.CGI)
	}
	if k&logfmt.KindFavicon != 0 {
		satInc(&c.Favicon)
	}
	if k&logfmt.KindEmbedded != 0 {
		satInc(&c.Embedded)
	}
	if r&reqReferrer != 0 {
		satInc(&c.WithReferrer)
		if followed {
			satInc(&c.LinkFollowing)
		} else {
			satInc(&c.UnseenReferrer)
		}
	}
	switch r >> reqStatus {
	case 2:
		satInc(&c.Status2xx)
	case 3:
		satInc(&c.Status3xx)
	case 4:
		satInc(&c.Status4xx)
	case 5:
		satInc(&c.Status5xx)
	}
}

// classBits returns one bit per non-zero counter category. The tracker bumps
// a session's decision epoch when a request introduces a previously unseen
// category ("new request class"), since only then can a count-derived rule
// flip its verdict.
func (c *Counts) classBits() uint32 {
	var b uint32
	set := func(i int, v uint32) {
		if v != 0 {
			b |= 1 << i
		}
	}
	set(0, c.Head)
	set(1, c.Get)
	set(2, c.Post)
	set(3, c.HTML)
	set(4, c.Image)
	set(5, c.CGI)
	set(6, c.Favicon)
	set(7, c.Embedded)
	set(8, c.WithReferrer)
	set(9, c.UnseenReferrer)
	set(10, c.LinkFollowing)
	set(11, c.Status2xx)
	set(12, c.Status3xx)
	set(13, c.Status4xx)
	set(14, c.Status5xx)
	return b
}

// Snapshot is a copy of a session's state as of the moment it was built.
type Snapshot struct {
	// Key identifies the session. It holds the strings of the key the
	// snapshot was asked for (or, off the request path, strings rebuilt
	// from the record): a caller that keeps it past the request copies
	// them, or it pins the request's own copies (an address cut from a
	// header line, say).
	Key Key
	// FirstSeen and LastSeen bound the session's activity.
	FirstSeen time.Time
	LastSeen  time.Time
	// Counts are the request counters; Counts.Vector() is the session's
	// Table 2 attribute vector.
	Counts Counts
	// Epoch counts the session's state-changing events: creation, a newly
	// observed detection signal, a previously unseen request class, the
	// crossing of a configured decision mark (e.g. the classification
	// threshold), and — past the first mark — each doubling of the request
	// count (so verdicts derived from continuously drifting feature
	// fractions are refreshed at least logarithmically often). The decision
	// layer stores one verdict per epoch; other requests leave the epoch
	// untouched.
	Epoch uint64
	// Signals records, per detection signal, the request count at which it
	// was first observed (absent = unobserved).
	Signals Signals

	// verdict is the verdict the record held when the snapshot was built;
	// zero for literal snapshots built outside the tracker.
	verdict StoredVerdict

	// pooled is the snapshot's own address while it is on loan from snapPool
	// (set by Peek, cleared by Release). A value copy lives at a different
	// address, so only the pointer Peek handed out carries the obligation.
	pooled *Snapshot
}

// StoredVerdict is a verdict as the session record keeps it: 12 bytes of
// values, read and written under the shard mutex like the rest of the record.
// What the numbers mean — which model epoch, which row of the verdict table,
// which fleet node — is the decision layer's business; the tracker stores one
// (Tracker.StoreVerdict), copies it into every snapshot, and drops it
// whenever the session's epoch advances, so a stored verdict always belongs
// to the session's current epoch. Rule 0 means nothing is stored.
type StoredVerdict struct {
	ModelEpoch uint32
	AtRequest  uint32
	Rule       uint8
	Origin     uint8
}

// snapPool recycles the snapshots Peek hands out, so the per-request read
// path allocates nothing at steady state.
var snapPool = sync.Pool{New: func() any { return new(Snapshot) }}

// StoredVerdict returns the verdict the session record held when the
// snapshot was built (zero when none was stored, and for snapshots not
// produced by a tracker).
func (s *Snapshot) StoredVerdict() StoredVerdict { return s.verdict }

// Release hands a snapshot obtained from Peek (or Engine.Decide) back for
// reuse; the caller must not touch it afterwards. It is a no-op on nil
// snapshots, on value copies and on a pointer already released, and a
// snapshot that is never released is simply collected.
func (s *Snapshot) Release() {
	if s != nil && s.pooled == s {
		*s = Snapshot{}
		snapPool.Put(s)
	}
}

// NormalizeUA normalises an agent string the way the injected reporter
// script does (lowercase, spaces removed) so header and script-reported
// values compare equal across encodings.
func NormalizeUA(ua string) string {
	return strings.ReplaceAll(strings.ToLower(ua), " ", "")
}

// SameNormalizedUA reports whether NormalizeUA(a) == NormalizeUA(b) without
// building either string. ASCII input — every real User-Agent — is compared
// byte by byte, skipping spaces and folding A-Z to a-z. Anything else takes
// the reference path: lowercasing a non-ASCII rune can change its length, or
// even produce ASCII (the Kelvin sign lowercases to 'k').
func SameNormalizedUA(a, b string) bool {
	if !isASCII(a) || !isASCII(b) {
		return NormalizeUA(a) == NormalizeUA(b)
	}
	i, j := 0, 0
	for {
		for i < len(a) && a[i] == ' ' {
			i++
		}
		for j < len(b) && b[j] == ' ' {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if lowerASCII(a[i]) != lowerASCII(b[j]) {
			return false
		}
		i, j = i+1, j+1
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// sessionState is the tracker's per-session record and the only copy of the
// session: 192 bytes, eight of which fill an allocator size class exactly in
// the table's chunk, and no pointer. The embedded node is the table's: the
// session's ID and its LRU and index-chain links. A removal in the shard may
// move the record (see shard.Shard.Remove). Every field is guarded by the
// owning shard's mutex; readers get a Snapshot built by fill under it.
type sessionState struct {
	shard.Node[sessionID]

	epoch     uint32 // state-changing event counter (see Snapshot.Epoch)
	firstSeen int64  // Unix nanoseconds; lastSeen never moves backwards
	lastSeen  int64
	counts    Counts
	signals   Signals       // first-observation request counts, fixed array
	verdict   StoredVerdict // the decision layer's verdict at this epoch
	// paths holds the path set's fingerprints while npaths <= inlinePaths;
	// past that, paths[0] is the set's index in the shard's spill store and
	// paths[1] its capacity.
	paths  [inlinePaths]uint32
	npaths uint16
}

// inlinePaths is how many path fingerprints a record holds itself: a
// session of up to three distinct pages allocates nothing beside its record.
const inlinePaths = 3

// sessionID is a session's key as its record holds it, 25 bytes and no
// pointer: the address (see intern.Addr) and the User-Agent's interned
// handle. The handle is kept as bytes so that the ID packs beside the
// address without padding. IDs are equal exactly when the keys they were
// built from are (FuzzClientKey).
type sessionID struct {
	addr intern.Addr
	ua   [8]byte
}

func makeID(addr intern.Addr, ua intern.Handle) sessionID {
	id := sessionID{addr: addr}
	binary.LittleEndian.PutUint64(id.ua[:], uint64(ua))
	return id
}

func (id sessionID) uaHandle() intern.Handle {
	return intern.Handle(binary.LittleEndian.Uint64(id.ua[:]))
}

// newcomer is the record of a session that has made one request and
// nothing else, at most 64 bytes so that 24 of them share the chunk of eight
// full records: the table's node, the request's time and path fingerprint,
// and the request folded into the bits its counters read. The rest of the
// session follows from these: its referrer, if any, is unseen (the session
// had no earlier path), and its last-seen time, counters, path set and epoch
// are what a full record reaches from the same request (Tracker.grow), its
// signals and verdict are none. A one-request client, never judged, is held
// in a third of a full record. Anything more the session does promotes the
// record in place first (Tracker.full); a read expands it into the same
// snapshot.
type newcomer struct {
	shard.Node[sessionID]
	path      uint32 // the request's path fingerprint
	firstSeen int64  // Unix nanoseconds, the request's time
	req       request
}

// node is a session's table node, which lookups and walks return; the
// shard's Record gives the session's full or newcomer record.
type node = shard.Node[sessionID]

// sessionShard is one locked partition of the tracker's table.
type sessionShard = shard.Shard[sessionID, sessionState, newcomer, *sessionState, *newcomer]

// fill builds the session's snapshot, under key, into out. Caller holds the
// shard lock.
func (st *sessionState) fill(out *Snapshot, key Key) {
	*out = Snapshot{
		Key:       key,
		FirstSeen: time.Unix(0, st.firstSeen),
		LastSeen:  time.Unix(0, st.lastSeen),
		Counts:    st.counts,
		Epoch:     uint64(st.epoch),
		Signals:   st.signals,
		verdict:   st.verdict,
	}
}

// bump advances the session's decision epoch. The stored verdict was derived
// at the epoch being left, so it goes too. Caller holds the shard lock.
func (st *sessionState) bump() {
	st.epoch++
	st.verdict = StoredVerdict{}
}

// Config controls the tracker.
type Config struct {
	// IdleTimeout ends a session after this much inactivity (paper: 1 hour).
	IdleTimeout time.Duration
	// MaxSessions caps concurrently tracked sessions. The bound is
	// distributed over the shards as ceil(MaxSessions/Shards) per shard (at
	// least 1), so the effective cap is MaxSessions rounded up to a multiple
	// of the shard count — up to Shards-1 sessions more than requested. The
	// least recently active sessions of a full shard are evicted (and
	// reported to the Evicted callback). Use Shards: 1 for an exact bound.
	MaxSessions int
	// Shards is the number of independently locked session shards, rounded
	// up to a power of two (default shard.DefaultShards). Use 1 to recover
	// strict global LRU ordering at the cost of write concurrency.
	Shards int
	// DecisionMarks lists request counts at which a session's decision epoch
	// is bumped even without a new signal or request class — typically the
	// classification threshold, where count-gated rules first become
	// decidable. The slice must be small (it is scanned per request).
	DecisionMarks []int64
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
	// Evicted, when non-nil, receives a snapshot of every session that ends
	// (idle timeout, capacity eviction or FlushAll). Experiments use it to
	// collect completed sessions. Each snapshot is an independent copy. The
	// callback is always invoked without any shard lock held, but it can fire
	// from any goroutine that triggers an eviction — concurrently with
	// itself — so it must be safe for concurrent use. When nil, a session
	// that ends by expiry or eviction builds no snapshot at all.
	Evicted func(Snapshot)
	// Interner, when non-nil, is the string table User-Agents are interned
	// into (the engine passes its own so it can report the table's size).
	// When nil the tracker creates a private one. Interned bytes
	// are accounted by the interner's own MemoryEstimate, not the tracker's.
	Interner *intern.Interner
}

func (c Config) withDefaults() Config {
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = time.Hour
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1 << 20
	}
	c.Shards = shard.Normalize(c.Shards)
	if c.Clock == nil {
		c.Clock = clock.System
	}
	if c.Interner == nil {
		c.Interner = intern.New(8)
	}
	return c
}

// Tracker maintains the set of active sessions, partitioned into shards.
// It is safe for concurrent use.
//
// Key.Hash (FNV-1a, unseeded, so placement and therefore capacity eviction
// are the same on every run) picks a session's shard, and the table's seeded
// slot hash its index slot (see shard.Table). Besides the sessions, the
// decision layer's verdict for each session's current epoch lives here
// (StoreVerdict), so reading a session reads its verdict.
type Tracker struct {
	cfg      Config
	table    *shard.Table[Key, sessionID, sessionState, newcomer, *sessionState, *newcomer]
	interner *intern.Interner

	ended atomic.Int64
	sweep atomic.Uint64 // round-robin cursor for amortized expiry
	bytes atomic.Int64  // heap of the spilled path sets and spill stores (see MemoryEstimate)

	evictions [numEvictReasons]atomic.Int64
}

// NewTracker creates a Tracker.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{
		cfg:      cfg,
		table:    shard.NewTable[Key, sessionID, sessionState, newcomer](cfg.Shards, cfg.MaxSessions, Key.Hash),
		interner: cfg.Interner,
	}
}

// ShardCount returns the number of shards (a power of two).
func (t *Tracker) ShardCount() int { return t.table.Shards() }

// ShardFill returns shard i's session count and cap (the static split of
// MaxSessions until RebalanceCaps redistributes it), for the per-shard
// telemetry gauges. It locks only that shard.
func (t *Tracker) ShardFill(i int) (n, max int) { return t.table.ShardFill(i) }

// RebalanceCaps redistributes the global MaxSessions budget across shards
// proportional to observed occupancy: each shard's cap becomes its current
// population plus an equal share of the remaining global headroom (never
// below a quarter of the static per-shard split). A key-skewed client mix
// can therefore grow a hot shard toward the global budget instead of
// thrashing against the static ceil(MaxSessions/Shards) cap while cold
// shards sit on unused quota. The engine calls this once per full sweep
// cycle from the occupancy signal; it locks one shard at a time.
func (t *Tracker) RebalanceCaps() {
	n := t.table.Shards()
	if n == 1 {
		return
	}
	occ := make([]int, n)
	total := 0
	for i := range occ {
		occ[i], _ = t.table.ShardFill(i)
		total += occ[i]
	}
	share := max(t.cfg.MaxSessions-total, 0) / n
	floor := max(shard.PerShardCap(t.cfg.MaxSessions, n)/4, 1)
	for i, have := range occ {
		t.table.SetShardCap(i, max(have+share, floor))
	}
}

// ObserveQuiet records one request for the session identified by the
// entry's client IP and User-Agent, creating the session if needed; a caller
// that reads the session afterwards takes a Peek. Instrumentation traffic
// (beacon fetches, the injected CSS/JS, hidden-link hits) should NOT be
// passed to it — those are reported through Mark — so that request counts
// reflect the client's own traffic, matching the paper's per-request
// accounting. A new session's one request is held in a newcomer record,
// unless its shard has a full slot free; the session's second request
// promotes it to a full one.
func (t *Tracker) ObserveQuiet(e logfmt.Entry) {
	key := Key{IP: e.ClientIP, UserAgent: e.UserAgent}
	when := e.Time
	if when.IsZero() {
		when = t.cfg.Clock.Now()
	}
	now := when.UnixNano()
	kind := e.Kind()
	sh, h := t.table.Locate(key)

	var evicted []Snapshot
	sh.Lock()
	n := t.find(sh, h, key)
	if n != nil && now-lastSeen(sh, n) > int64(t.cfg.IdleTimeout) {
		// The gap since the last request exceeds the idle timeout: the old
		// session ends and the new activity starts a fresh one (the paper's
		// session definition).
		if t.cfg.Evicted != nil {
			evicted = t.appendFinal(evicted, sh, n, key)
		}
		t.endLocked(sh, n, EvictIdle)
		n = nil
	}
	var st *sessionState
	if n != nil {
		st = t.full(sh, n)
	} else if full, nc := sh.InsertNewcomer(h, t.newID(key)); nc != nil {
		nc.firstSeen, nc.path, nc.req = now, pathFingerprint(e.PathOnly()), fold(e, kind)
	} else {
		st = full
		st.start(now)
	}
	if st != nil {
		// A forwarded request can arrive after a later one (a fleet owner
		// applies its peers' requests with their origin times, after mesh
		// delay): it counts, but the session stays as recent as its newest
		// request.
		st.lastSeen = max(st.lastSeen, now)
		sh.Touch(&st.Node)
		classes := st.counts.classBits()
		paths := t.pathsOf(sh, st)
		st.counts.observe(e, kind, &paths)
		t.storePaths(sh, st, paths)
		t.advance(st, classes)
	}
	evicted = t.enforceCapLocked(sh, evicted)
	sh.Unlock()

	t.notify(evicted)
}

// advance moves the session's decision epoch for the request just counted,
// given the request classes it had before (classBits).
func (t *Tracker) advance(st *sessionState, classesBefore uint32) {
	c := &st.counts
	for _, mark := range t.cfg.DecisionMarks {
		if int64(c.Total) == mark {
			st.bump()
		}
	}
	// Past the first decision mark, refresh the epoch whenever the request
	// count doubles (powers of two): detectors over continuous feature
	// fractions (the learned model) drift with every request even when no
	// discrete event fires, so stored verdicts must be re-derived at least
	// logarithmically often. O(log n) extra recomputes per session bounds
	// staleness at 2× the session length while keeping the steady state
	// allocation-free.
	if len(t.cfg.DecisionMarks) > 0 && int64(c.Total) > t.cfg.DecisionMarks[0] && c.Total&(c.Total-1) == 0 {
		st.bump()
	}
	if c.classBits() != classesBefore {
		st.bump() // a request class this session had never produced before
	}
}

// grow writes the session the newcomer nc holds into st, a full record zero
// but for its node: the state a full record reaches from the same first
// request, which ObserveQuiet gave it in fewer bytes.
func (t *Tracker) grow(st *sessionState, nc *newcomer) {
	st.start(nc.firstSeen)
	st.paths[0], st.npaths = nc.path, 1
	st.counts.add(nc.req, false)
	t.advance(st, 0)
}

// full returns the full record of the session whose node is n, promoting a
// newcomer's in place first: every write but a session's first request
// needs one. When the shard's other newcomers then fit in its full chunks'
// free slots it promotes them too, which gives their chunk back (see
// shard.Shard.Straggler). Caller holds the shard lock.
func (t *Tracker) full(sh *sessionShard, n *node) *sessionState {
	st, nc := sh.Record(n)
	if nc != nil {
		st = t.promote(sh, nc)
		for nc := sh.Straggler(); nc != nil; nc = sh.Straggler() {
			t.promote(sh, nc)
		}
	}
	return st
}

// promote moves the newcomer nc into a full record and returns it. Caller
// holds the shard lock.
func (t *Tracker) promote(sh *sessionShard, nc *newcomer) *sessionState {
	was := *nc
	st := sh.Promote(nc)
	t.grow(st, &was)
	return st
}

// fill builds the snapshot of the session whose node is n, under key, into
// out; a newcomer's is its expansion's. Caller holds the shard lock.
func (t *Tracker) fill(sh *sessionShard, n *node, out *Snapshot, key Key) {
	st, nc := sh.Record(n)
	if nc != nil {
		var grown sessionState
		t.grow(&grown, nc)
		st = &grown
	}
	st.fill(out, key)
}

// lastSeen is the time of the newest request of the session whose node is
// n. Caller holds the shard lock.
func lastSeen(sh *sessionShard, n *node) int64 {
	st, nc := sh.Record(n)
	if nc != nil {
		return nc.firstSeen
	}
	return st.lastSeen
}

// Mark records a detection signal for the session, creating the session if
// it does not exist yet (a beacon can be the first thing the proxy sees from
// a client when page requests raced ahead of tracking). It reports whether
// the signal was newly set; a caller that reads the session afterwards takes
// a Peek.
func (t *Tracker) Mark(key Key, sig Signal) bool {
	now := t.cfg.Clock.Now().UnixNano()
	sh, h := t.table.Locate(key)

	var evicted []Snapshot
	sh.Lock()
	var st *sessionState
	if n := t.find(sh, h, key); n != nil {
		st = t.full(sh, n)
	} else {
		st = t.createLocked(sh, h, key, now)
	}
	st.lastSeen = max(st.lastSeen, now)
	sh.Touch(&st.Node)
	newly := false
	if !st.signals.Has(sig) && int(sig) >= 0 && int(sig) < numSignals {
		// A signal before any tracked request is attributed to request 1
		// (Signals.set maps 0 to 1).
		st.signals.set(sig, st.counts.Total)
		st.bump() // a signal is always a state-changing event
		newly = true
	}
	evicted = t.enforceCapLocked(sh, evicted)
	sh.Unlock()

	t.notify(evicted)
	return newly
}

// Bump advances the session's decision epoch without changing any tracked
// state, dropping the session's stored verdict. The fleet layer calls it
// when a replicated verdict lands for a locally tracked session: the
// evidence lives on another node, but the local verdict must still be
// recomputed through the remote-verdict stage. It reports whether the
// session was tracked.
func (t *Tracker) Bump(key Key) bool {
	sh, h := t.table.Locate(key)
	sh.Lock()
	n := t.find(sh, h, key)
	if n != nil {
		t.full(sh, n).bump()
	}
	sh.Unlock()
	return n != nil
}

// StoreVerdict stores v in the record of the session snap was taken from, if
// that session is still tracked and still at snap's epoch: a verdict derived
// from an older state, or from an earlier session under the same key (told
// apart by its first-seen time), is dropped. It reports whether v was
// stored. The decision layer calls it after deriving a verdict outside the
// lock; every later snapshot of the session carries v until its epoch moves.
func (t *Tracker) StoreVerdict(snap *Snapshot, v StoredVerdict) bool {
	sh, h := t.table.Locate(snap.Key)
	sh.Lock()
	n := t.find(sh, h, snap.Key)
	var cur Snapshot
	if n != nil {
		t.fill(sh, n, &cur, snap.Key)
	}
	ok := n != nil && cur.Epoch == snap.Epoch && cur.FirstSeen.Equal(snap.FirstSeen)
	if ok {
		t.full(sh, n).verdict = v
	}
	sh.Unlock()
	return ok
}

// Peek returns the session's snapshot in a pooled buffer: the per-request
// read path the decision layer classifies from, allocation-free at steady
// state. It takes the shard mutex like every other operation — the same one
// the serve path's ObserveQuiet takes for the same request a moment later —
// so the snapshot is exact as of the last request, stored verdict included.
// The snapshot is the caller's own (later activity never alters it) until
// Release, which the caller should call when done reading.
func (t *Tracker) Peek(key Key) (*Snapshot, bool) {
	sh, h := t.table.Locate(key)
	sh.Lock()
	n := t.find(sh, h, key)
	if n == nil {
		sh.Unlock()
		return nil, false
	}
	snap := snapPool.Get().(*Snapshot)
	t.fill(sh, n, snap, key)
	sh.Unlock()
	snap.pooled = snap
	return snap, true
}

// Active returns the number of currently tracked sessions.
func (t *Tracker) Active() int { return t.table.Len() }

// OneRequest returns the number of tracked sessions that have made exactly
// one request, the sessions a newcomer record is for (a first request takes
// a full record where its shard has a full slot free). It walks each shard
// under its lock in turn: it is for scrapes, not the serve path.
func (t *Tracker) OneRequest() int {
	one := 0
	for i := range t.table.Shards() {
		sh := t.table.Shard(i)
		sh.Lock()
		for n := sh.Head(); n != nil; n = sh.Next(n) {
			if st, _ := sh.Record(n); st == nil || st.counts.Total == 1 {
				one++
			}
		}
		sh.Unlock()
	}
	return one
}

// MemoryEstimate returns the tracker's approximate live memory footprint in
// bytes: the table's chunks of session records, chunk directories and bucket
// arrays (its IndexBytes), the path sets past a record's inline room and the
// shards' spill stores. Interned User-Agent bytes (and addresses that are
// not IP addresses) are accounted by the shared interner, not here. It is
// maintained with atomic adds on the write path, so reading it is lock-free
// and allocation-free — the load-state recomputation reads it on the serve
// path.
func (t *Tracker) MemoryEstimate() int64 { return t.bytes.Load() + t.table.IndexBytes() }

// Evictions returns cumulative per-reason eviction counts. Lock-free.
func (t *Tracker) Evictions() EvictionStats {
	return EvictionStats{
		Idle:              t.evictions[EvictIdle].Load(),
		CapacityAnonymous: t.evictions[EvictCapacityAnonymous].Load(),
		CapacityEvidence:  t.evictions[EvictCapacityEvidence].Load(),
		Flush:             t.evictions[EvictFlush].Load(),
	}
}

// EvictedByReason returns the cumulative count for one reason. Lock-free.
func (t *Tracker) EvictedByReason(r EvictReason) int64 {
	if int(r) < 0 || int(r) >= numEvictReasons {
		return 0
	}
	return t.evictions[r].Load()
}

// Ended returns the cumulative number of sessions that have ended (idle
// timeout, eviction, or FlushAll).
func (t *Tracker) Ended() int64 { return t.ended.Load() }

// Each streams a snapshot of every active session to yield, shard by shard,
// stopping early when yield returns false. Only one shard is locked at a
// time (and only while its batch is copied out, not while yield runs), so
// iteration never pauses the whole tracker. Sessions created or removed
// concurrently may or may not be visited; order is unspecified (within a
// shard it is most recently active first).
func (t *Tracker) Each(yield func(Snapshot) bool) {
	batch := make([]Snapshot, 0, 64)
	for i := range t.table.Shards() {
		sh := t.table.Shard(i)
		batch = batch[:0]
		sh.Lock()
		for n := sh.Head(); n != nil; n = sh.Next(n) {
			batch = append(batch, Snapshot{})
			t.fill(sh, n, &batch[len(batch)-1], t.keyOf(n.ID()))
		}
		sh.Unlock()
		for _, s := range batch {
			if !yield(s) {
				return
			}
		}
	}
}

// Snapshots returns copies of all active sessions, ordered by first-seen
// time then key for determinism. It is built on the streaming per-shard
// path; no global lock is held.
func (t *Tracker) Snapshots() []Snapshot {
	out := make([]Snapshot, 0, t.Active())
	t.Each(func(s Snapshot) bool {
		out = append(out, s)
		return true
	})
	sortSnapshots(out)
	return out
}

// SweepStep expires idle sessions in one shard, advancing a round-robin
// cursor so that repeated calls cover the whole table. Callers amortize
// expiry by invoking it periodically (ShardCount calls make one full pass);
// each call locks a single shard only. It returns the number of sessions
// ended in the swept shard.
func (t *Tracker) SweepStep(now time.Time) int {
	i := t.sweep.Add(1) - 1
	return t.expireShard(t.table.Shard(int(i%uint64(t.table.Shards()))), now)
}

// expireShard walks the whole LRU list, tail first: an observed request
// carries its own time, so list order is not lastSeen order.
func (t *Tracker) expireShard(sh *sessionShard, now time.Time) int {
	var evicted []Snapshot
	ended := 0
	deadline := now.UnixNano() - int64(t.cfg.IdleTimeout)
	sh.Lock()
	for n := sh.Tail(); n != nil; {
		prev := sh.Prev(n)
		if lastSeen(sh, n) < deadline {
			if t.cfg.Evicted != nil {
				evicted = t.appendFinal(evicted, sh, n, t.keyOf(n.ID()))
			}
			if from := t.endLocked(sh, n, EvictIdle); from != nil && prev == from {
				prev = n // the removal moved prev into n's slot
			}
			ended++
		}
		n = prev
	}
	sh.Unlock()
	t.notify(evicted)
	return ended
}

// FlushAll ends every tracked session, invoking the Evicted callback for
// each, and returns their snapshots sorted by first-seen time then key.
// Experiments call it at the end of a run so partially complete sessions are
// still reported. Shards are flushed one at a time.
func (t *Tracker) FlushAll() []Snapshot {
	snaps := make([]Snapshot, 0, t.Active())
	for i := range t.table.Shards() {
		sh := t.table.Shard(i)
		sh.Lock()
		for n := sh.Tail(); n != nil; n = sh.Tail() {
			snaps = t.appendFinal(snaps, sh, n, t.keyOf(n.ID()))
			t.endLocked(sh, n, EvictFlush)
		}
		sh.Unlock()
	}
	sortSnapshots(snaps)
	if cb := t.cfg.Evicted; cb != nil {
		for _, s := range snaps {
			cb(s)
		}
	}
	return snaps
}

// find returns the node of the session under key, whose slot hash is h, or
// nil. Caller holds the shard lock. The ID is looked up under it: a User-Agent (or an
// address that is not an IP address) the interner does not hold is in no
// record, and no insert into the shard can race that answer.
func (t *Tracker) find(sh *sessionShard, h uint64, key Key) *node {
	if id, ok := t.lookupID(key); ok {
		return sh.Get(h, id)
	}
	return nil
}

// lookupID returns key's ID without taking a reference on its interned
// strings; ok is false when no record can hold it.
func (t *Tracker) lookupID(key Key) (sessionID, bool) {
	addr, ok := t.interner.LookupAddr(key.IP)
	if !ok {
		return sessionID{}, false
	}
	ua, ok := t.interner.Lookup(key.UserAgent)
	return makeID(addr, ua), ok
}

// newID returns key's ID for a new record, which owns the references it
// takes on the interned strings until removeLocked drops them.
func (t *Tracker) newID(key Key) sessionID {
	return makeID(t.interner.Addr(key.IP), t.interner.Intern(key.UserAgent))
}

// keyOf rebuilds the key a session's ID was built from: the snapshots of
// sessions no caller named (eviction and expiry with a listener, Each,
// FlushAll) carry it. It allocates the address string. Caller holds the
// shard lock, so the ID's handles are live.
func (t *Tracker) keyOf(id sessionID) Key {
	return Key{IP: t.interner.AddrString(id.addr), UserAgent: t.interner.String(id.uaHandle())}
}

// createLocked inserts a fresh session with no request, whose key's slot
// hash is h, into the shard as a full record (a newcomer is created by its
// first request, in ObserveQuiet). The User-Agent is interned: a million sessions from the same
// browser share one UA string instead of carrying a million copies, and the
// record keeps its handle. An IP address is kept in the record; any other
// address string is interned too, so the session pins no part of a request
// line (a forwarded-for header).
func (t *Tracker) createLocked(sh *sessionShard, h uint64, key Key, now int64) *sessionState {
	st := sh.Insert(h, t.newID(key))
	st.start(now)
	return st
}

// start sets a new session's times, both now, and its epoch, 1 for its
// creation.
func (st *sessionState) start(now int64) {
	st.firstSeen, st.lastSeen, st.epoch = now, now, 1
}

// pathsOf returns the session's path set: its record's own fingerprints while
// they fit there, else its spilled set. Caller holds the shard lock.
func (t *Tracker) pathsOf(sh *sessionShard, st *sessionState) pathTable {
	if st.npaths <= inlinePaths {
		return pathTable{fps: st.paths[:st.npaths]}
	}
	return pathTable{fps: shard.SpillGet[uint32](sh.Spill(), st.paths[0], int(st.npaths), int(st.paths[1]))}
}

// storePaths records pt, the session's path set after an observation, and
// charges its growth. A set within the record was updated in place; the
// insert that outgrows it moved the set to the heap, and the record keeps
// the set's spill index instead. Caller holds the shard lock.
func (t *Tracker) storePaths(sh *sessionShard, st *sessionState, pt pathTable) {
	n := len(pt.fps)
	if n == int(st.npaths) {
		return
	}
	if n > inlinePaths {
		var moved int64
		if st.npaths > inlinePaths {
			moved = shard.SpillSet(sh.Spill(), st.paths[0], int(st.paths[1]), pt.fps)
		} else {
			st.paths[0], moved = shard.SpillPut(sh.Spill(), pt.fps)
		}
		st.paths[1] = uint32(cap(pt.fps))
		t.bytes.Add(moved)
	}
	st.npaths = uint16(n)
}

// appendFinal appends the final snapshot of the session whose node is n, a
// session about to end, under key to out: what the Evicted listener hears
// (delivered after unlocking) and FlushAll returns. Caller holds the shard
// lock.
func (t *Tracker) appendFinal(out []Snapshot, sh *sessionShard, n *node, key Key) []Snapshot {
	out = append(out, Snapshot{})
	t.fill(sh, n, &out[len(out)-1], key)
	return out
}

// endLocked ends the session whose node is n: it deletes the record from
// the shard, counts the end under reason and drops the record's references
// on its interned strings. Reporting the session is the caller's business
// (appendFinal), before this call. The record in the last slot of its size
// moves into n's: endLocked returns the address that node moved from, nil
// when none moved, as shard.Shard.Remove does.
func (t *Tracker) endLocked(sh *sessionShard, n *node, reason EvictReason) *node {
	if st, _ := sh.Record(n); st != nil && st.npaths > inlinePaths {
		t.bytes.Add(shard.SpillDrop[uint32](sh.Spill(), st.paths[0], int(st.paths[1])))
	}
	id := n.ID()
	from := sh.Remove(n)
	t.ended.Add(1)
	t.evictions[reason].Add(1)
	t.interner.ReleaseAddr(id.addr)
	t.interner.Release(id.uaHandle())
	return from
}

// hasEvidence reports whether the session whose node is n has observed any
// detection signal (a newcomer has not). Caller holds the shard lock.
// Sessions with evidence are what the detector exists to remember; capacity
// eviction prefers victims without it.
func hasEvidence(sh *sessionShard, n *node) bool {
	st, _ := sh.Record(n)
	return st != nil && st.signals.Any()
}

// enforceCapLocked evicts sessions while the shard exceeds its cap,
// appending their snapshots to evicted when there is a listener. It prefers
// evicting sessions with no accumulated detection evidence: starting from
// the LRU tail it scans up to evictScanLimit entries for a signal-free
// victim, falling back to strict LRU only when every scanned session
// carries evidence. A brand-new
// anonymous client therefore can never wash an evidence-bearing session out
// of the tracker just by showing up (the attacker-laundering hole in plain
// LRU), while the scan bound keeps the worst-case hold time of the shard
// lock constant.
func (t *Tracker) enforceCapLocked(sh *sessionShard, evicted []Snapshot) []Snapshot {
	for sh.Len() > sh.Cap() {
		victim := sh.Tail()
		reason := EvictCapacityAnonymous
		if hasEvidence(sh, victim) {
			reason = EvictCapacityEvidence
			for cand, n := sh.Prev(victim), 0; cand != nil && n < evictScanLimit; cand, n = sh.Prev(cand), n+1 {
				if !hasEvidence(sh, cand) {
					victim, reason = cand, EvictCapacityAnonymous
					break
				}
			}
		}
		if t.cfg.Evicted != nil {
			evicted = t.appendFinal(evicted, sh, victim, t.keyOf(victim.ID()))
		}
		t.endLocked(sh, victim, reason)
	}
	return evicted
}

// notify delivers eviction snapshots outside any shard lock; there are
// none without a listener.
func (t *Tracker) notify(evicted []Snapshot) {
	for _, s := range evicted {
		t.cfg.Evicted(s)
	}
}

func sortSnapshots(out []Snapshot) {
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		if out[i].Key.IP != out[j].Key.IP {
			return out[i].Key.IP < out[j].Key.IP
		}
		return out[i].Key.UserAgent < out[j].Key.UserAgent
	})
}

// refererPath reduces a Referer URL to its path component so it can be
// matched against the session's own requested paths.
func refererPath(ref string) string {
	s := ref
	if _, rest, ok := strings.Cut(s, "://"); ok {
		s = "/"
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			s = rest[j:]
		}
	}
	s, _, _ = strings.Cut(s, "?")
	s, _, _ = strings.Cut(s, "#")
	if s == "" {
		s = "/"
	}
	return s
}
