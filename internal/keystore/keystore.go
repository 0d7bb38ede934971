// Package keystore implements the server-side table of per-client random
// keys that backs human activity detection (Section 2.1 of the paper).
//
// When the proxy rewrites page foo.html for a client, it asks the store to
// issue the page view: the store draws the per-page object tokens and
// remembers that the client is owed a fresh random key k together with m decoy
// keys. The keys themselves are drawn when the page's script is first asked
// for (PageKeysFor) — the script is the only thing that carries them, so a key
// exists from the moment someone could know it and a page whose script is
// never downloaded costs a header, not a key run. The real key is embedded in
// the mouse/keyboard event handler's beacon URL; the decoys are embedded in
// obfuscation functions that a human's browser never calls. When a beacon
// request arrives, the store validates the carried key:
//
//   - a matching, unconsumed real key proves an input event (human),
//   - a decoy key identifies a robot that blindly fetched embedded URLs,
//   - an unknown key is a replay or a guess.
//
// Keys expire after a TTL and the table is capped per client and globally so
// a flood of page fetches cannot exhaust proxy memory. The decoy count, key
// width, TTL, shard count, seed and clock are settable (Config — the engine
// sets each of them); the caps are fixed: 64 outstanding page views per client
// and 100,000 clients (maxPerClient, maxClients).
//
// The table is sharded by an FNV-1a hash of the client IP: each shard has
// its own mutex, client map, LRU list and key-generation stream, so issuing
// and validating keys for different clients proceeds in parallel. Counters
// are atomic and never serialise the hot path.
//
// Keys are decimal digit strings on the wire but uint64 values internally:
// a key of up to MaxKeyDigits digits packs into one machine word. A client's
// table is one flat, issue-ordered log: a slice of 12-byte batch headers
// (issue tick, script-token tag, decoy count, drawn and consumed bits), one per
// page view, and a key arena in which a drawn batch's real key is followed by
// its decoys and an undrawn batch occupies no words at all. A client holds at
// most maxPerClient (64) batches — at most 320 contiguous words at the default
// decoy count — so validation and the uniqueness check are linear scans, and
// expiry and eviction drop whole batches by copy-down (never reallocating at
// steady state). There is no per-key record and no per-client hash table; the only
// map is each shard's client index.
//
// A key is a number from draw to wire, and there is one path it can take:
// IssuePage fills a caller-owned PageKeys without allocating, PageKeysFor draws
// (once) and returns the keys a script download splices in as fixed-width
// digits (PageKeys.AppendKey, jsgen.Variant.RenderKeys), and Validate parses
// the digits a beacon request carries — the only strings the store ever sees,
// because those bytes are the attacker's.
package keystore

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"botdetect/internal/clock"
	"botdetect/internal/rng"
	"botdetect/internal/shard"
)

// Verdict is the result of validating a beacon key.
type Verdict int

const (
	// Unknown means the key was never issued (guess, replay of an expired
	// key, or corruption).
	Unknown Verdict = iota
	// Human means the key is a real key issued to this client and not yet
	// consumed: the client executed the event handler.
	Human
	// Decoy means the key is one of the decoy keys: the client fetched
	// beacon URLs blindly without executing the script.
	Decoy
	// Replayed means the real key was already consumed once before.
	Replayed
)

// String returns a short name for the verdict.
func (v Verdict) String() string {
	switch v {
	case Human:
		return "human"
	case Decoy:
		return "decoy"
	case Replayed:
		return "replayed"
	default:
		return "unknown"
	}
}

// MaxKeyDigits is the largest supported key width: 19 decimal digits still
// fit a uint64 (10^19-1 < 2^64), which is what lets the store hold keys as
// machine words instead of strings. Configurations asking for more are
// clamped; the ~2^63 space is far beyond guessable either way.
const MaxKeyDigits = 19

// PageKeys is one issued page view: the per-page object tokens as
// fixed-width digit values, plus room for the real key and the decoys.
// IssuePage leaves Key zero and Decoys empty — the keys are not
// drawn until the page's script is requested, and PageKeysFor is where a
// caller learns them. A caller that reuses one PageKeys per connection issues
// with zero allocations.
type PageKeys struct {
	// Page is the page path the keys were issued for.
	Page string
	// Key is the real key's digit value; zero until drawn.
	Key uint64
	// CSSToken, ScriptToken and HiddenToken name the per-page objects.
	CSSToken    uint64
	ScriptToken uint64
	HiddenToken uint64
	// Decoys are the decoy key values; empty until drawn. The slice is owned
	// by the PageKeys and reset by the next IssuePage into it.
	Decoys []uint64
	// Digits is the fixed key width in decimal digits (leading zeros are
	// significant on the wire).
	Digits int
	// IssuedAt is when the keys were generated.
	IssuedAt time.Time
}

// AppendKey appends v in the page's fixed-width digit format.
func (pk *PageKeys) AppendKey(dst []byte, v uint64) []byte {
	return rng.AppendFixedDigits(dst, v, pk.Digits)
}

// Config controls Store behaviour.
type Config struct {
	// Decoys is the number of decoy keys per page (m in the paper). A blind
	// fetcher is caught with probability Decoys/(Decoys+1). A page view is
	// owed at most 32767 (the batch header's int16).
	Decoys int
	// KeyDigits is the length of each key in decimal digits (the paper's
	// example beacons carry 10-digit numbers). Values above MaxKeyDigits
	// (19, the uint64 limit) are clamped.
	KeyDigits int
	// TTL is how long issued keys stay valid.
	TTL time.Duration
	// Shards is the number of independently locked shards, rounded up to a
	// power of two (default shard.DefaultShards). Use 1 for strict global
	// LRU client eviction at the cost of write concurrency.
	Shards int
	// Seed drives key generation.
	Seed uint64
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.Decoys <= 0 {
		c.Decoys = 4
	}
	if c.KeyDigits <= 0 {
		c.KeyDigits = 10
	}
	if c.KeyDigits > MaxKeyDigits {
		c.KeyDigits = MaxKeyDigits
	}
	if c.TTL <= 0 {
		c.TTL = time.Hour
	}
	c.Shards = shard.Normalize(c.Shards)
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// The two caps that keep a flood of page fetches from exhausting proxy memory.
const (
	// maxPerClient caps the outstanding page views per client IP; the oldest
	// are discarded with their keys.
	maxPerClient = 64
	// maxClients caps the number of distinct client IPs tracked. The bound
	// is distributed over the shards as ceil(maxClients/Shards) per shard
	// (storeShard.max), so the effective cap is maxClients rounded up to a
	// multiple of the shard count; with Shards: 1 it is exact.
	maxClients = 100000
)

// tickResolution is the number of coarse ticks per TTL (so a tick unit is
// TTL/65536, floored at 1ns — quantisation is ~0.003% of the TTL). The uint32
// tick space then covers 65536 TTLs (~7.5 years at the default 1-hour TTL)
// before saturating.
const tickResolution = 1 << 16

// batch is the header of one page view in a client's key log. Once drawn, its
// keys sit in the client's arena in the same (issue) order — the real key,
// then the decoys — so a batch's arena offset is the sum of the runs before
// it; every reader walks the headers from the front anyway. Until its script
// is requested a batch has no keys and no run. All of a batch's keys share one
// issue tick, so they expire together.
type batch struct {
	tick     uint32 // coarse issue time; see Store.tick
	tag      uint32 // tokenTag of the page's script token
	decoys   int16  // decoy keys the page is owed (following the real key once drawn)
	drawn    bool   // the keys exist: the script has been requested
	consumed bool   // the real key has validated once
}

// maxDecoys is the largest decoy count a batch header can record.
const maxDecoys = math.MaxInt16

// words is the length of the batch's run in the arena.
func (b batch) words() int {
	if !b.drawn {
		return 0
	}
	return 1 + int(b.decoys)
}

// tokenTag folds a script token into the 32 bits a batch has room for
// (Fibonacci hashing: the high half of the product mixes every token bit). A
// client holds at most maxPerClient batches, so two of its own tokens share a
// tag with probability ~maxPerClient/2^32, and the first live match wins.
func tokenTag(token uint64) uint32 { return uint32((token * 0x9e3779b97f4a7c15) >> 32) }

// deadKey overwrites an arena word whose key was found expired by Validate
// before the next issue swept its batch, so the key is counted as dropped
// exactly once. No key can equal it: MaxKeyDigits digits stay below 2^64-1.
const deadKey = ^uint64(0)

// liveWords counts the arena words in run that still hold a key.
func liveWords(run []uint64) int64 {
	var n int64
	for _, w := range run {
		if w != deadKey {
			n++
		}
	}
	return n
}

// clientState is the per-client key log. States are linked into their
// shard's intrusive LRU list. The headers and the arena are compacted in
// place (copy-down) when batches are dropped, so a stable working set reaches
// a steady state where IssuePage allocates nothing at all.
type clientState struct {
	ip      string
	batches []batch  // issue order; not tick order (degraded issues are backdated)
	keys    []uint64 // arena: each drawn batch's real key, then its decoys
	// oldestTick is a lower bound on the issue tick of every batch: expiry
	// scans are skipped entirely while now-oldest <= TTL, because no key can
	// have expired yet. It is exact after the first issue and after every
	// scan (the scan re-derives the minimum over the survivors).
	oldestTick uint32

	prev, next *clientState // intrusive LRU: prev = towards front (most recent)
}

// Stats are cumulative counters exposed for monitoring and experiments.
type Stats struct {
	// Issued counts page views issued; Drawn counts those whose keys were
	// drawn because their script was requested.
	Issued         int64
	Drawn          int64
	HumanHits      int64
	DecoyHits      int64
	ReplayHits     int64
	UnknownHits    int64
	ExpiredDropped int64
	EvictedClients int64
}

// storeStats is the internal atomic mirror of Stats.
type storeStats struct {
	issued         atomic.Int64
	drawn          atomic.Int64
	humanHits      atomic.Int64
	decoyHits      atomic.Int64
	replayHits     atomic.Int64
	unknownHits    atomic.Int64
	expiredDropped atomic.Int64
	evictedClients atomic.Int64
}

// storeShard is one independently locked partition of the key table.
type storeShard struct {
	mu      sync.Mutex
	src     *rng.Source
	clients map[string]*clientState
	head    *clientState // most recently used
	tail    *clientState // least recently used
	count   int          // live clients (== len(clients))
	max     int          // per-shard client cap
}

// Memory costs backing Store.MemoryEstimate, derived from the actual layouts
// via unsafe.Sizeof so they cannot silently rot when fields change
// (TestKeystoreStructBudgets pins the layouts and TestMemoryEstimateCoversHeap
// holds the total against measured heap). The estimate feeds admission
// control (see core.LoadState), where an overestimate degrades service early
// and an underestimate OOMs — so the logs are charged at their capacity, not
// their length: append's doubling leaves up to half of a slice spare, and
// copy-down compaction keeps the arrays it shrinks.
const (
	batchBytes = int64(unsafe.Sizeof(batch{}))
	keyBytes   = int64(unsafe.Sizeof(uint64(0)))
	// clientBaseBytes is charged per tracked client: the clientState in its
	// 16-byte allocator size class, plus one slot of the shard's client map
	// (string header, pointer, control byte) at the half load a just-doubled
	// table has.
	clientBaseBytes = (int64(unsafe.Sizeof(clientState{}))+15)/16*16 +
		2*int64(unsafe.Sizeof("")+unsafe.Sizeof((*clientState)(nil))+1)
)

// pinnedBytes is the heap the client pins beyond its own struct: the address
// string (in its 16-byte size class) and the capacity of the log.
func (cs *clientState) pinnedBytes() int64 {
	return int64(len(cs.ip)+15)&^15 + int64(cap(cs.batches))*batchBytes + int64(cap(cs.keys))*keyBytes
}

// Store is the key table. It is safe for concurrent use.
type Store struct {
	cfg    Config
	shards []*storeShard
	mask   uint64
	stats  storeStats

	// Coarse-tick time base (see Store.tick): epoch is set at construction
	// far enough in the past that backdated (degraded) issues never go
	// negative, tickUnit is TTL/tickResolution floored at 1ns, and ttlTicks
	// is the TTL in ticks rounded up, so quantisation can only ever lengthen
	// a key's life (by < 2 ticks ≈ TTL/32768), never expire it early.
	epoch    time.Time
	tickUnit time.Duration
	ttlTicks uint32

	// liveClients/pinnedBytes mirror the locked per-shard state (the latter is
	// the sum of clientState.pinnedBytes) so occupancy and memory estimates
	// are lock-free reads on the serve path.
	liveClients atomic.Int64
	pinnedBytes atomic.Int64
}

// New creates a Store with the given configuration.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, mask: uint64(cfg.Shards - 1)}
	s.tickUnit = cfg.TTL / tickResolution
	if s.tickUnit <= 0 {
		s.tickUnit = 1
	}
	s.ttlTicks = uint32((cfg.TTL + s.tickUnit - 1) / s.tickUnit)
	s.epoch = cfg.Clock.Now().Add(-cfg.TTL - 4*s.tickUnit)
	base := rng.New(cfg.Seed).Fork("keystore")
	perShard := shard.PerShardCap(maxClients, cfg.Shards)
	s.shards = make([]*storeShard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &storeShard{
			src:     base.Fork(fmt.Sprintf("shard-%d", i)),
			clients: make(map[string]*clientState),
			max:     perShard,
		}
	}
	return s
}

// ShardCount returns the number of shards (a power of two).
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardClients returns the number of client states currently held by shard
// i, for per-shard telemetry gauges. It locks only that shard.
func (s *Store) ShardClients(i int) int {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.count
}

func (s *Store) shard(ip string) *storeShard {
	return s.shards[shard.HashString(ip)&s.mask]
}

// tick converts a wall time to the store's coarse tick scale. Times before
// the epoch clamp to 0 and the scale saturates at the uint32 ceiling; both
// only lengthen apparent key life, never shorten it.
func (s *Store) tick(t time.Time) uint32 {
	d := t.Sub(s.epoch)
	if d < 0 {
		return 0
	}
	n := int64(d) / int64(s.tickUnit)
	if n > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(n)
}

// expired reports whether a key issued at recTick is past the TTL at nowTick.
func (s *Store) expired(nowTick, recTick uint32) bool {
	return int64(nowTick)-int64(recTick) > int64(s.ttlTicks)
}

// --- intrusive LRU -----------------------------------------------------------

func (sh *storeShard) pushFront(cs *clientState) {
	cs.prev = nil
	cs.next = sh.head
	if sh.head != nil {
		sh.head.prev = cs
	}
	sh.head = cs
	if sh.tail == nil {
		sh.tail = cs
	}
}

func (sh *storeShard) unlink(cs *clientState) {
	if cs.prev != nil {
		cs.prev.next = cs.next
	} else {
		sh.head = cs.next
	}
	if cs.next != nil {
		cs.next.prev = cs.prev
	} else {
		sh.tail = cs.prev
	}
	cs.prev, cs.next = nil, nil
}

func (sh *storeShard) moveToFront(cs *clientState) {
	if sh.head == cs {
		return
	}
	sh.unlink(cs)
	sh.pushFront(cs)
}

// clientLocked returns (creating if needed) the state for ip on sh,
// mirroring creations into the lock-free liveClients counter.
func (s *Store) clientLocked(sh *storeShard, ip string) *clientState {
	cs, ok := sh.clients[ip]
	if !ok {
		cs = &clientState{ip: ip}
		sh.pushFront(cs)
		sh.clients[ip] = cs
		sh.count++
		s.liveClients.Add(1)
		s.pinnedBytes.Add(cs.pinnedBytes())
	}
	return cs
}

// IssuePage issues one page view to the given client: it draws the per-page
// object tokens into the caller-owned pk and appends a batch header to the
// client's log recording that the page is owed a real key and the configured
// number of decoys. No key is drawn — pk.Key stays zero and pk.Decoys empty —
// until the page's script is requested (PageKeysFor), so a page view whose
// script nobody downloads holds no key anyone could present. The call
// allocates nothing at steady state and locks only the client's shard.
func (s *Store) IssuePage(clientIP, page string, pk *PageKeys) {
	s.issuePage(clientIP, page, s.cfg.Decoys, 0, pk)
}

// IssuePageDegraded is IssuePage for a load-shedding serving layer: the page
// is owed decoys decoy keys (instead of the configured count) and its issue
// timestamp is backdated so the whole batch expires after ttl instead of the
// configured TTL. Validation and expiry are untouched — a shorter-lived key
// is simply an older one. Degraded pages stay fully verifiable (a real key
// beacon still proves a human); they just pin less proxy memory per
// anonymous client while the tracker is under pressure.
func (s *Store) IssuePageDegraded(clientIP, page string, decoys int, ttl time.Duration, pk *PageKeys) {
	s.issuePage(clientIP, page, max(decoys, 0), ttl, pk)
}

// issuePage is the locked body of every issue: one LRU touch, one expiry
// scan, one header, then the per-client and per-shard caps. A ttl in (0, TTL)
// backdates the batch's issue tick so it expires after ttl.
func (s *Store) issuePage(clientIP, page string, decoys int, ttl time.Duration, pk *PageKeys) {
	sh := s.shard(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	now := s.cfg.Clock.Now()
	nowTick := s.tick(now)
	issueTick := nowTick
	if ttl > 0 && ttl < s.cfg.TTL {
		issueTick = s.tick(now.Add(ttl - s.cfg.TTL))
	}
	cs := s.clientLocked(sh, clientIP)
	sh.moveToFront(cs)
	s.expireClientLocked(cs, nowTick)
	if len(cs.batches) == 0 || issueTick < cs.oldestTick {
		cs.oldestTick = issueTick
	}

	// The draw order (CSS, script, hidden token) is part of the store's
	// deterministic surface: fixed-seed runs replay it byte for byte.
	digits := s.cfg.KeyDigits
	pk.Page = page
	pk.Digits = digits
	pk.Key = 0
	pk.CSSToken = sh.src.DigitKeyValue(digits)
	pk.ScriptToken = sh.src.DigitKeyValue(digits)
	pk.HiddenToken = sh.src.DigitKeyValue(digits)
	pk.Decoys = pk.Decoys[:0]
	pk.IssuedAt = now
	pinned := cs.pinnedBytes()
	cs.batches = append(cs.batches, batch{tick: issueTick, tag: tokenTag(pk.ScriptToken), decoys: int16(min(decoys, maxDecoys))})
	if grown := cs.pinnedBytes() - pinned; grown != 0 {
		s.pinnedBytes.Add(grown)
	}
	s.stats.issued.Add(1)

	s.enforcePerClientLocked(cs)
	s.enforceClientCapLocked(sh)
}

// drawLocked draws the keys of the undrawn batch b, whose (empty) run sits at
// arena offset off: the real key, then the decoys, inserted at the batch's
// position so the arena stays in issue order. Each draw must differ from every
// key the client holds and from the draws before it, so it lands in the arena
// before the next one is checked.
func (s *Store) drawLocked(sh *storeShard, cs *clientState, b *batch, off int) {
	n := 1 + int(b.decoys)
	pinned := cs.pinnedBytes()
	end := len(cs.keys)
	cs.keys = slices.Grow(cs.keys, n)[:end+n]
	copy(cs.keys[off+n:], cs.keys[off:end])
	rest := cs.keys[off+n:]
	for i := off; i < off+n; i++ {
		v := sh.src.DigitKeyValue(s.cfg.KeyDigits)
		for slices.Contains(cs.keys[:i], v) || slices.Contains(rest, v) {
			v = sh.src.DigitKeyValue(s.cfg.KeyDigits)
		}
		cs.keys[i] = v
	}
	b.drawn = true
	if grown := cs.pinnedBytes() - pinned; grown != 0 {
		s.pinnedBytes.Add(grown)
	}
	s.stats.drawn.Add(1)
}

// dropBatchesLocked removes the first n batches from the client's log and
// compacts the headers and the arena in place (copy-down, no reallocation) so
// the backing arrays never creep: O(live) per eviction wave, but
// allocation-free forever (live sizes are maxPerClient-bounded).
func (s *Store) dropBatchesLocked(cs *clientState, n int) {
	off := 0
	for _, b := range cs.batches[:n] {
		off += b.words()
	}
	cs.keys = cs.keys[:copy(cs.keys, cs.keys[off:])]
	cs.batches = cs.batches[:copy(cs.batches, cs.batches[n:])]
}

// expireClientLocked drops the batches older than the TTL for one client.
// Batches are not in tick order, so this is a scan over the headers; it only
// runs when the oldest batch can actually have expired (tracked via
// clientState.oldestTick, re-derived exactly from the survivors on every
// scan), so hot-path issues skip it.
func (s *Store) expireClientLocked(cs *clientState, nowTick uint32) {
	if len(cs.batches) == 0 || !s.expired(nowTick, cs.oldestTick) {
		return
	}
	minSurvivor := nowTick
	keepB, keepK := cs.batches[:0], cs.keys[:0]
	var dropped int64
	off := 0
	for _, b := range cs.batches {
		run := cs.keys[off : off+b.words()]
		off += len(run)
		if s.expired(nowTick, b.tick) {
			dropped += liveWords(run)
			continue
		}
		minSurvivor = min(minSurvivor, b.tick)
		keepB = append(keepB, b)
		keepK = append(keepK, run...)
	}
	s.stats.expiredDropped.Add(dropped)
	cs.batches, cs.keys = keepB, keepK
	cs.oldestTick = minSurvivor
}

// enforcePerClientLocked bounds the number of outstanding page views for one
// client by discarding the oldest issues together with their decoys.
func (s *Store) enforcePerClientLocked(cs *clientState) {
	if over := len(cs.batches) - maxPerClient; over > 0 {
		s.dropBatchesLocked(cs, over)
	}
}

// enforceClientCapLocked bounds the number of distinct clients in the shard.
func (s *Store) enforceClientCapLocked(sh *storeShard) {
	for sh.count > sh.max {
		victim := sh.tail
		if victim == nil {
			return
		}
		sh.unlink(victim)
		delete(sh.clients, victim.ip)
		sh.count--
		s.liveClients.Add(-1)
		s.pinnedBytes.Add(-victim.pinnedBytes())
		s.stats.evictedClients.Add(1)
	}
}

// Validate checks a beacon key presented by the given client. Real keys are
// consumed on first use so replays are detected. Only the client's shard is
// locked. Keys must be exactly KeyDigits digits: length or character
// mismatches are Unknown (so "007" and "7" never collide).
func (s *Store) Validate(clientIP, key string) Verdict {
	v, ok := rng.ParseFixedDigits(key, s.cfg.KeyDigits)
	if !ok {
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	return s.ValidateValue(clientIP, v)
}

// ValidateValue is Validate over an already parsed key value: one scan of
// the client's arena for the key, then a walk over the headers to the batch
// that holds it.
func (s *Store) ValidateValue(clientIP string, key uint64) Verdict {
	sh := s.shard(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	cs, ok := sh.clients[clientIP]
	if !ok {
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	sh.moveToFront(cs)
	at := -1
	if key != deadKey {
		at = slices.Index(cs.keys, key)
	}
	if at < 0 {
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	bi, first := 0, 0 // the batch holding at, and its real key's arena offset
	for at >= first+cs.batches[bi].words() {
		first += cs.batches[bi].words()
		bi++
	}
	b := &cs.batches[bi]
	if s.expired(s.tick(s.cfg.Clock.Now()), b.tick) {
		cs.keys[at] = deadKey
		s.stats.expiredDropped.Add(1)
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	if at != first {
		s.stats.decoyHits.Add(1)
		return Decoy
	}
	if b.consumed {
		s.stats.replayHits.Add(1)
		return Replayed
	}
	b.consumed = true
	s.stats.humanHits.Add(1)
	return Human
}

// PageKeysFor returns the real key and the decoys (appended to decoys) of the
// live batch issued to clientIP under scriptToken — everything a page's
// beacon script is rendered from, so the serving layer stores no script. It is
// the only door a key leaves through, and the first request for a live batch
// is what draws its keys; every later request returns the same ones. ok is
// false when the client holds no such batch or it is past the TTL (judged
// exactly as ValidateValue judges its real key): a script is available
// precisely as long as the key it carries can still validate. The scan is
// bounded by maxPerClient; only the client's shard is locked.
func (s *Store) PageKeysFor(clientIP string, scriptToken uint64, decoys []uint64) (key uint64, _ []uint64, ok bool) {
	sh := s.shard(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	cs, found := sh.clients[clientIP]
	if !found {
		return 0, decoys, false
	}
	sh.moveToFront(cs)
	tag := tokenTag(scriptToken)
	nowTick := s.tick(s.cfg.Clock.Now())
	off := 0
	for i := range cs.batches {
		b := &cs.batches[i]
		if b.tag == tag && !s.expired(nowTick, b.tick) {
			if !b.drawn {
				s.drawLocked(sh, cs, b, off)
			}
			if run := cs.keys[off : off+b.words()]; run[0] != deadKey {
				return run[0], append(decoys, run[1:]...), true
			}
		}
		off += b.words()
	}
	return 0, decoys, false
}

// OutstandingKeys returns the number of drawn, unexpired keys currently stored
// for the client (real plus decoys). It is primarily for tests and monitoring.
func (s *Store) OutstandingKeys(clientIP string) int {
	sh := s.shard(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cs, ok := sh.clients[clientIP]
	if !ok {
		return 0
	}
	return int(liveWords(cs.keys))
}

// Clients returns the number of distinct client IPs currently tracked,
// summed shard by shard (no global lock).
func (s *Store) Clients() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.count
		sh.mu.Unlock()
	}
	return total
}

// Occupancy returns the fraction of the client capacity in use, lock-free.
func (s *Store) Occupancy() float64 {
	return float64(s.liveClients.Load()) / maxClients
}

// MemoryEstimate returns the store's approximate live memory footprint in
// bytes: a fixed cost per client plus every client's address string and
// key-log capacity. Lock-free and allocation-free; the load-state recomputation reads it
// on the serve path.
func (s *Store) MemoryEstimate() int64 {
	return s.liveClients.Load()*clientBaseBytes + s.pinnedBytes.Load()
}

// Stats returns a copy of the cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Issued:         s.stats.issued.Load(),
		Drawn:          s.stats.drawn.Load(),
		HumanHits:      s.stats.humanHits.Load(),
		DecoyHits:      s.stats.decoyHits.Load(),
		ReplayHits:     s.stats.replayHits.Load(),
		UnknownHits:    s.stats.unknownHits.Load(),
		ExpiredDropped: s.stats.expiredDropped.Load(),
		EvictedClients: s.stats.evictedClients.Load(),
	}
}

// Decoys returns the configured number of decoy keys per page.
func (s *Store) Decoys() int { return s.cfg.Decoys }
