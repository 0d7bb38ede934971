// Package keystore implements the server-side table of per-client keys that
// backs human activity detection (Section 2.1 of the paper).
//
// When the proxy rewrites a page for a client, it issues the page view: the
// page gets three object tokens (its stylesheet, script and hidden link) and
// is owed a real key and m decoy keys. The first request for the page's
// script (PageKeysFor) hands the keys out — the script is the only thing that
// carries them, so no key validates before someone could know it. The real
// key sits in the mouse/keyboard handler's beacon URL, the decoys in
// functions a human's browser never calls. A beacon's key validates as Human
// (an unconsumed real key: an input event), Decoy (a robot fetching embedded
// URLs blindly), Replayed (a consumed real key) or Unknown (a guess, a stale
// key or another client's).
//
// Keys are derived, not stored, the way SYN cookies derive a sequence number.
// Every token and key is a value of one keyed permutation P of the
// KeyDigits-digit decimal domain (perm.go, after NIST SP 800-38G's FF1, keyed
// from Config.Seed: the keys are exactly as secret as the seed). A client
// numbers its page views n = 0, 1, 2, …; page view n's tokens are P(n) under
// a css, a script and a hidden tweak, its keys P(n·256 + i) under a key
// tweak, i = 0 the real key and 1..m the decoys. Every tweak carries the
// client's address hash and its incarnation, a store-wide counter taken when
// the client is created, so no key outlives an eviction. Validation inverts
// P to (n, i): a key validates only if the client holds page view n, its
// script was requested, it is within its TTL and i is at most its decoy
// count. A guess inverts to a uniform plaintext, so it is Human with
// probability at most 64/10^KeyDigits and anything but Unknown with
// probability at most 64·(m+1)/10^KeyDigits.
//
// A client is one 64-byte record with no pointer in it — its address inline
// (intern.Addr), its table links and its window while the window fits in
// the record's 28 bytes — and past that a spilled window. The window is a
// 12-byte prefix (base tick, incarnation, the first page-view number held and
// how many) and a 2-byte header per page view, indexed by n − first: a
// 12-bit tick offset from the base, then a degraded, a drawn, a consumed and
// a lapsed bit. A header keeps no decoy count: a page view is owed either
// Config.Decoys or, degraded, max(1, Decoys/4), and the bit says which. The
// record holds eight headers; the ninth page view moves the window into the
// shard's spill store, where it grows through the allocator's size classes
// to the last maxPerClient (64) issues — at most 140 bytes, in the 144-byte
// size class — and drops from its front in place, so a stable working set
// never reallocates. An issue drops
// the expired page views at the front; one expired behind the front (only a
// backdated, degraded issue makes one) keeps its slot and answers as expired
// until the front or the cap reaches it. A drawn page view's keys count in
// ExpiredDropped once, when the window drops it past its TTL. A client whose
// page-view numbers would pass min(2^24-1, 10^KeyDigits/256) takes a fresh
// incarnation and drops its page views.
//
// Time is counted in ticks of TTL/2048 (floored at 1ns; 1.76 s at the default
// hour), so a TTL spans at most 4,095 ticks (2,049 from about 4ms up) and a
// live page view's offset fits 12 bits: an issue keeps the base within the
// TTL of now (see expireClientLocked), and no live page view is older than
// that.
//
// The clients are a shard.Table keyed by IP, the session tracker's table: an
// FNV-1a hash of the address picks the shard, so placement and LRU eviction
// repeat exactly; each shard adds the AES block P works in. No value depends
// on the shard count.
package keystore

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/intern"
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
// numbers instead of strings. Configurations asking for more are
// clamped; the ~2^63 space is far beyond guessable either way.
const MaxKeyDigits = 19

// MinKeyDigits is the smallest supported key width: FF1's minimum domain of
// 10^6, which leaves 10^6/256 = 3,906 page-view numbers per incarnation, many
// times the 64 a window holds. Configurations asking for fewer are raised.
const MinKeyDigits = 6

// PageKeys is one issued page view: the per-page object tokens as
// fixed-width digit values, plus room for the real key and the decoys.
// IssuePage leaves Key zero and Decoys empty — no key validates until the
// page's script is requested, and PageKeysFor is where a caller learns them.
// A caller that reuses one PageKeys per connection issues with zero
// allocations.
type PageKeys struct {
	// Page is the page path the keys were issued for.
	Page string
	// Key is the real key's digit value; zero until the script is requested.
	Key uint64
	// CSSToken, ScriptToken and HiddenToken name the per-page objects.
	CSSToken    uint64
	ScriptToken uint64
	HiddenToken uint64
	// Decoys are the decoy key values; empty until the script is requested.
	// The slice is owned by the PageKeys and reset by the next IssuePage.
	Decoys []uint64
	// Digits is the fixed key width in decimal digits (leading zeros are
	// significant on the wire).
	Digits int
	// IssuedAt is when the page view was issued.
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
	// owed at most MaxDecoys.
	Decoys int
	// KeyDigits is the length of each key in decimal digits (the paper's
	// example beacons carry 10-digit numbers). Values below MinKeyDigits (6)
	// are raised and values above MaxKeyDigits (19, the uint64 limit) are
	// clamped.
	KeyDigits int
	// TTL is how long issued keys stay valid.
	TTL time.Duration
	// Shards is the number of independently locked shards, rounded up to a
	// power of two (default shard.DefaultShards). Use 1 for strict global
	// LRU client eviction at the cost of write concurrency.
	Shards int
	// Seed keys the permutation every token and key is derived from.
	Seed uint64
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.Decoys <= 0 {
		c.Decoys = 4
	}
	c.Decoys = min(c.Decoys, MaxDecoys)
	if c.KeyDigits <= 0 {
		c.KeyDigits = 10
	}
	c.KeyDigits = min(max(c.KeyDigits, MinKeyDigits), MaxKeyDigits)
	if c.TTL <= 0 {
		c.TTL = time.Hour
	}
	c.Shards = shard.Normalize(c.Shards)
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// The caps that keep a flood of page fetches from exhausting proxy memory,
// and the one that keeps a page-view number in its prefix field.
const (
	// maxPerClient caps the outstanding page views per client IP: the window
	// is the last maxPerClient issues.
	maxPerClient = 64
	// maxClients caps the number of distinct client IPs tracked. The bound
	// is distributed over the shards as ceil(maxClients/Shards) per shard
	// (shard.PerShardCap), so the effective cap is maxClients rounded up to a
	// multiple of the shard count; with Shards: 1 it is exact.
	maxClients = 100000
	// maxViewNumbers bounds a client's page-view numbers per incarnation, so
	// the prefix's u24 first can hold every first+count, the wrap included.
	maxViewNumbers = 1<<24 - 1
)

// tickResolution is the number of coarse ticks per TTL (so a tick unit is
// TTL/2048, floored at 1ns — quantisation is ~0.05% of the TTL). The TTL in
// ticks is then at most maxOffset at every TTL (at most 2,049 from about 4ms
// up, 4,095 at a TTL of 4,095ns), which is what lets a header store its tick
// in 12 bits. The uint32 tick space covers 2^21 TTLs (~239 years at the
// default 1-hour TTL) before saturating.
const tickResolution = 1 << 11

// The window's layout (see the package doc), little-endian. The prefix's base
// tick is at most every live header's tick; issues skip the lapse scan while
// it is within the TTL, because no live page view can have expired yet. A
// header's tick is an offset from it (see Store.tick). Headers are in
// page-view number order, not tick order (degraded issues are backdated).
const (
	logPrefixBytes = 12
	preIncarnation = 4 // offset of the u32 incarnation
	preWindow      = 8 // offset of the u32 first | count<<24

	// A header is a u16: the tick offset in its low 12 bits, the flags above.
	headerBytes = 2
	maxOffset   = 1<<12 - 1

	flagDegraded = 1 << 12 // owed the degraded decoy count (see Store.owed)
	flagDrawn    = 1 << 13 // the script has been requested: the keys validate
	flagConsumed = 1 << 14 // the real key has validated once
	flagLapsed   = 1 << 15 // past its TTL behind the window's front; the offset is unused
)

// degradedShare is what a degraded page view gets of a full one: a quarter
// of the decoys (at least one) and a quarter of the key lifetime, so each
// anonymous arrival under pressure pins less keystore memory for less time
// while its page still carries a real key.
const degradedShare = 4

// MaxDecoys is the largest decoy count a page view is owed: a key's index
// i = 0..m fits the low byte of n·256 + i. Config.Decoys above it is clamped.
const MaxDecoys = math.MaxUint8

// window is a client's log: the prefix, then one header per page view held.
type window []byte

// base is the prefix's base tick, from which every live header's tick counts.
func (w window) base() uint32 { return binary.LittleEndian.Uint32(w) }

func (w window) incarnation() uint32 { return binary.LittleEndian.Uint32(w[preIncarnation:]) }

// first is the number of the oldest page view held, count how many are held.
func (w window) first() uint32 { return binary.LittleEndian.Uint32(w[preWindow:]) & (1<<24 - 1) }
func (w window) count() int    { return int(w[preWindow+3]) }

func (w window) setWindow(first uint32, count int) {
	binary.LittleEndian.PutUint32(w[preWindow:], first|uint32(count)<<24)
}

// header reads the header at offset h.
func (w window) header(h int) uint16 { return binary.LittleEndian.Uint16(w[h:]) }

// has reports whether the header at offset h carries flag.
func (w window) has(h int, flag uint16) bool { return w.header(h)&flag != 0 }

// mark sets flag in the header at offset h.
func (w window) mark(h int, flag uint16) { binary.LittleEndian.PutUint16(w[h:], w.header(h)|flag) }

// tick reads the issue tick of the live header at offset h.
func (w window) tick(h int) uint32 { return w.base() + uint32(w.header(h)&maxOffset) }

// rebase moves the base to tick, which must be at most every live header's
// tick, rewriting the live offsets so their ticks stay put. An offset that
// would pass maxOffset, which only a clock running backwards can cause,
// saturates: that page view expires early rather than wrapping into the
// flags.
func (w window) rebase(tick uint32) {
	d := int64(w.base()) - int64(tick)
	for h := logPrefixBytes; h < len(w); h += headerBytes {
		if hdr := w.header(h); hdr&flagLapsed == 0 {
			off := min(int64(hdr&maxOffset)+d, maxOffset)
			binary.LittleEndian.PutUint16(w[h:], hdr&^maxOffset|uint16(off))
		}
	}
	binary.LittleEndian.PutUint32(w, tick)
}

// grow returns w with room for n more bytes. A window that is full moves into
// the smallest allocator size class that holds the new length: appending to
// a nil slice rounds the capacity up to exactly that class, so cap — what
// pinnedBytes charges — is what the allocation occupies, and no more.
func (w window) grow(n int) window {
	if len(w)+n <= cap(w) {
		return w
	}
	g := append(window(nil), make(window, len(w)+n)...)
	return g[:copy(g, w)]
}

// pow10 is 10^n for n <= MaxKeyDigits.
func pow10(n int) uint64 {
	v := uint64(1)
	for range n {
		v *= 10
	}
	return v
}

// clientState is one tracked client: the table's node (its address and its
// LRU and index-chain links) and its window while the window fits in log.
// Past that, log's count byte reads spilled, its first four bytes hold the
// window's index in the shard's spill store and the next four its capacity.
// The window drops from its front in place, so a stable working set reaches
// a steady state where IssuePage allocates nothing at all.
type clientState struct {
	shard.Node[intern.Addr]
	log [logPrefixBytes + inlineHeaders*headerBytes]byte
}

// inlineHeaders is how many page views a record's own window holds, and
// spilled the count byte of a record whose window is in the spill store: no
// window holds that many page views.
const (
	inlineHeaders = 8
	spilled       = math.MaxUint8
)

// clientShard is one locked partition of the store's client table.
type clientShard = shard.Shard[intern.Addr, clientState, clientState, *clientState, *clientState]

// Stats are cumulative counters exposed for monitoring and experiments.
type Stats struct {
	// Issued counts page views issued; Drawn counts those whose script was
	// requested.
	Issued      int64
	Drawn       int64
	HumanHits   int64
	DecoyHits   int64
	ReplayHits  int64
	UnknownHits int64
	// ExpiredDropped counts the keys of drawn page views the window dropped
	// past their TTL.
	ExpiredDropped int64
	EvictedClients int64
}

// storeStats is the internal atomic mirror of Stats; hits counts each
// Verdict.
type storeStats struct {
	issued         atomic.Int64
	drawn          atomic.Int64
	hits           [Replayed + 1]atomic.Int64
	expiredDropped atomic.Int64
	evictedClients atomic.Int64
}

// spilledIndex reports whether the client's window is in the spill store,
// under which index and with what capacity.
func (cs *clientState) spilledIndex() (i uint32, capacity int, ok bool) {
	return binary.LittleEndian.Uint32(cs.log[:]), int(binary.LittleEndian.Uint32(cs.log[4:])), cs.log[preWindow+3] == spilled
}

// logOf returns the client's window: the record's own bytes while it fits
// there, else its spilled copy, whose length its prefix's count gives.
// Caller holds the shard's lock.
func (s *Store) logOf(sh *clientShard, cs *clientState) window {
	w := cs.log[:]
	if i, c, ok := cs.spilledIndex(); ok {
		w = shard.SpillGet[byte](sh.Spill(), i, c, c)
	}
	return w[:logPrefixBytes+headerBytes*int(w[preWindow+3])]
}

// storeLog records w, the client's window after it grew or shrank, and
// charges the heap it moved to. A window in the record was changed in place;
// one that outgrew the record was copied to the heap by grow and spills.
// Caller holds the shard's lock.
func (s *Store) storeLog(sh *clientShard, cs *clientState, w window) {
	i, c, ok := cs.spilledIndex()
	if !ok && &w[0] == &cs.log[0] || ok && cap(w) == c {
		return
	}
	var moved int64
	if ok {
		moved = shard.SpillSet(sh.Spill(), i, c, w)
	} else {
		i, moved = shard.SpillPut(sh.Spill(), w)
		binary.LittleEndian.PutUint32(cs.log[:], i)
		cs.log[preWindow+3] = spilled
	}
	binary.LittleEndian.PutUint32(cs.log[4:], uint32(cap(w)))
	s.pinnedBytes.Add(moved)
}

// dropClientLocked removes the client from its shard and takes back what it
// was charged beyond its record.
func (s *Store) dropClientLocked(sh *clientShard, cs *clientState) {
	if i, c, ok := cs.spilledIndex(); ok {
		s.pinnedBytes.Add(shard.SpillDrop[byte](sh.Spill(), i, c))
	}
	addr := cs.ID()
	sh.Remove(&cs.Node)
	if names := s.names.Load(); names != nil {
		names.ReleaseAddr(addr)
	}
}

// lookupAddr returns clientIP's Addr for a lookup under its shard's lock; ok
// is false when no client can hold it (see intern.Interner.LookupAddr).
func (s *Store) lookupAddr(clientIP string) (intern.Addr, bool) {
	if names := s.names.Load(); names != nil {
		return names.LookupAddr(clientIP)
	}
	return intern.ParseAddr(clientIP)
}

// addr returns clientIP's Addr for a new client, interning an address that is
// not an IP address into the store's own interner, made the first time one
// arrives.
func (s *Store) addr(clientIP string) intern.Addr {
	if a, ok := intern.ParseAddr(clientIP); ok {
		return a
	}
	names := s.names.Load()
	if names == nil {
		s.names.CompareAndSwap(nil, intern.New(1))
		names = s.names.Load()
	}
	return names.Addr(clientIP)
}

// Store is the key table. It is safe for concurrent use.
type Store struct {
	cfg     Config
	clients *shard.Table[string, intern.Addr, clientState, clientState, *clientState, *clientState]
	perm    perm
	bufs    []permBuf // shard i's AES block, used under its lock
	stats   storeStats

	// names interns the client addresses that are not IP addresses; it is
	// made when the first one arrives.
	names atomic.Pointer[intern.Interner]

	// limit is 10^KeyDigits: a value at or above it is refused before P is
	// inverted. An incarnation has views page-view numbers,
	// min(maxViewNumbers, limit/256); incarnations is the last one handed out.
	limit        uint64
	views        uint32
	incarnations atomic.Uint32

	// Coarse-tick time base (see Store.tick): epoch is set at construction
	// far enough in the past that backdated (degraded) issues never go
	// negative, tickUnit is TTL/tickResolution floored at 1ns, and ttlTicks
	// is the TTL in ticks rounded up, so quantisation can only ever lengthen
	// a key's life (by < 2 ticks ≈ TTL/1024), never expire it early.
	epoch    time.Time
	tickUnit time.Duration
	ttlTicks uint32

	// pinnedBytes is the heap of the spilled windows and of the spill stores,
	// so the memory estimate, like the client count, is a lock-free read on
	// the serve path.
	pinnedBytes atomic.Int64
}

// New creates a Store with the given configuration.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, clients: shard.NewTable[string, intern.Addr, clientState, clientState](cfg.Shards, maxClients, shard.HashString)}
	s.perm = newPerm(permKey(cfg.Seed), cfg.KeyDigits)
	s.bufs = make([]permBuf, s.clients.Shards())
	s.limit = pow10(cfg.KeyDigits)
	s.views = uint32(min(maxViewNumbers, s.limit/256))
	s.tickUnit = cfg.TTL / tickResolution
	if s.tickUnit <= 0 {
		s.tickUnit = 1
	}
	s.ttlTicks = uint32((cfg.TTL + s.tickUnit - 1) / s.tickUnit)
	s.epoch = cfg.Clock.Now().Add(-cfg.TTL - 4*s.tickUnit)
	return s
}

// ShardFill returns shard i's client count and cap, for the per-shard
// telemetry gauges. It locks only that shard.
func (s *Store) ShardFill(i int) (n, max int) { return s.clients.ShardFill(i) }

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

// lapsed reports whether the page view whose header is at h is past its TTL
// at nowTick.
func (s *Store) lapsed(w window, h int, nowTick uint32) bool {
	return w.has(h, flagLapsed) || s.expired(nowTick, w.tick(h))
}

// owed returns the decoy count of the page view whose header is hdr: the
// configured count, or a quarter of it (at least one) for a degraded one.
func (s *Store) owed(hdr uint16) int {
	if hdr&flagDegraded != 0 {
		return max(1, s.cfg.Decoys/degradedShare)
	}
	return s.cfg.Decoys
}

// IssuePage issues one page view to the given client: it numbers the page
// view, fills the caller-owned pk with its object tokens and appends its
// header, owed a real key and the configured decoys, to the client's window.
// pk.Key stays zero and pk.Decoys empty: no key of the page validates until
// its script is requested (PageKeysFor). The call allocates nothing at steady
// state and locks only the client's shard.
func (s *Store) IssuePage(clientIP, page string, pk *PageKeys) {
	s.issuePage(clientIP, page, false, pk)
}

// IssuePageDegraded is IssuePage for a load-shedding serving layer: the page
// is owed a quarter of the configured decoys (at least one), and its issue
// tick is backdated so its keys expire after a quarter of the TTL — a
// shorter-lived key is simply an older one. Degraded pages stay fully
// verifiable; they just hold less for anonymous clients under pressure.
func (s *Store) IssuePageDegraded(clientIP, page string, pk *PageKeys) {
	s.issuePage(clientIP, page, true, pk)
}

// issuePage is the locked body of every issue: one LRU touch, the expiry of
// the window's front, one header, the three tokens, then the per-shard client
// cap. A degraded page view's issue tick is backdated by all but
// TTL/degradedShare of the TTL.
func (s *Store) issuePage(clientIP, page string, degraded bool, pk *PageKeys) {
	sh, hash := s.clients.Locate(clientIP)
	sh.Lock()
	defer sh.Unlock()

	now := s.cfg.Clock.Now()
	nowTick := s.tick(now)
	issueTick, hdr := nowTick, uint16(0)
	if degraded {
		hdr = flagDegraded
		if ttl := s.cfg.TTL / degradedShare; ttl > 0 {
			issueTick = s.tick(now.Add(ttl - s.cfg.TTL))
		}
	}
	cs := s.getLocked(sh, hash, clientIP)
	if cs == nil {
		// The record keeps an IP address itself and interns any other
		// address string: it may be cut from a request line (a forwarded-for
		// header) the store must not pin.
		cs = sh.Insert(hash, s.addr(clientIP))
		binary.LittleEndian.PutUint32(cs.log[preIncarnation:], s.incarnations.Add(1))
	}
	sh.Touch(&cs.Node)
	w := s.logOf(sh, cs)
	s.expireClientLocked(&w, nowTick)
	n := s.appendLocked(&w, nowTick, issueTick, hdr)
	s.storeLog(sh, cs, w)

	tweak, buf := clientTweak(clientIP, w.incarnation()), &s.bufs[sh.Index()]
	pk.Page = page
	pk.Digits = s.cfg.KeyDigits
	pk.Key = 0
	pk.CSSToken = s.perm.permute(buf, tweak, kindCSS, n)
	pk.ScriptToken = s.perm.permute(buf, tweak, kindScript, n)
	pk.HiddenToken = s.perm.permute(buf, tweak, kindHidden, n)
	pk.Decoys = pk.Decoys[:0]
	pk.IssuedAt = now
	s.stats.issued.Add(1)

	s.enforceClientCapLocked(sh)
}

// getLocked returns the client under clientIP, whose slot hash is hash, or
// nil. Caller holds the shard's lock.
func (s *Store) getLocked(sh *clientShard, hash uint64, clientIP string) *clientState {
	if addr, ok := s.lookupAddr(clientIP); ok {
		cs, _ := sh.Record(sh.Get(hash, addr))
		return cs
	}
	return nil
}

// appendLocked appends the header of a page view issued at tick, with flags
// hdr, to the client's window *lg and returns the page view's
// number. A client whose numbers are used up first takes a fresh incarnation
// and drops its page views; one at maxPerClient drops the oldest. The front's
// expiry has run at nowTick, so tick is at most ttlTicks past the base; a
// backdated tick below it becomes the base.
func (s *Store) appendLocked(lg *window, nowTick, tick uint32, hdr uint16) uint64 {
	if w := *lg; w.first()+uint32(w.count()) >= s.views {
		s.dropLocked(lg, w.count(), nowTick)
		binary.LittleEndian.PutUint32((*lg)[preIncarnation:], s.incarnations.Add(1))
		lg.setWindow(0, 0)
	} else if w.count() == maxPerClient {
		s.dropLocked(lg, 1, nowTick)
	}
	w := *lg
	first, count := w.first(), w.count()
	if count == 0 {
		binary.LittleEndian.PutUint32(w, tick)
	} else if tick < w.base() {
		w.rebase(tick)
	}
	h := len(w)
	w = w.grow(headerBytes)[:h+headerBytes]
	binary.LittleEndian.PutUint16(w[h:], hdr|uint16(tick-w.base()))
	w.setWindow(first, count+1)
	*lg = w
	return uint64(first) + uint64(count)
}

// dropLocked drops the k oldest page views from the client's window *lg,
// moving the survivors down in place, and counts in ExpiredDropped the keys
// of each dropped page view that was drawn and is past its TTL at nowTick.
func (s *Store) dropLocked(lg *window, k int, nowTick uint32) {
	if k == 0 {
		return
	}
	w := *lg
	var keys int64
	end := logPrefixBytes + k*headerBytes
	for h := logPrefixBytes; h < end; h += headerBytes {
		if w.has(h, flagDrawn) && s.lapsed(w, h, nowTick) {
			keys += 1 + int64(s.owed(w.header(h)))
		}
	}
	if keys != 0 {
		s.stats.expiredDropped.Add(keys)
	}
	w.setWindow(w.first()+uint32(k), w.count()-k)
	*lg = w[:logPrefixBytes+copy(w[logPrefixBytes:], w[end:])]
}

// expireClientLocked drops the expired page views at the front of the
// client's window *lg. When the base tick is past the TTL, a page view behind
// the front can have expired too: the scan marks each such header lapsed (its
// tick is never read again; an expired page view behind a live front may lie
// up to two TTLs back, past a 12-bit offset) and moves the base up to the
// oldest live tick, rewriting the live offsets, so every live offset stays
// within ttlTicks. The base is exact after every scan, so hot-path issues
// skip it.
func (s *Store) expireClientLocked(lg *window, nowTick uint32) {
	k := 0
	for k < lg.count() && s.lapsed(*lg, logPrefixBytes+k*headerBytes, nowTick) {
		k++
	}
	s.dropLocked(lg, k, nowTick)
	w := *lg
	if w.count() == 0 || !s.expired(nowTick, w.base()) {
		return
	}
	oldest := nowTick // the front is live, so some header lowers it
	for h := logPrefixBytes; h < len(w); h += headerBytes {
		if w.has(h, flagLapsed) {
			continue
		}
		if tick := w.tick(h); s.expired(nowTick, tick) {
			w.mark(h, flagLapsed)
		} else {
			oldest = min(oldest, tick)
		}
	}
	w.rebase(oldest)
}

// enforceClientCapLocked bounds the number of distinct clients in the shard,
// evicting in strict LRU order.
func (s *Store) enforceClientCapLocked(sh *clientShard) {
	for sh.Len() > sh.Cap() {
		cs, _ := sh.Record(sh.Tail())
		s.dropClientLocked(sh, cs)
		s.stats.evictedClients.Add(1)
	}
}

// viewLocked returns the header offset of page view n in the client's
// window w if w holds it and it is within its TTL.
func (s *Store) viewLocked(w window, n uint64) (h int, ok bool) {
	j := n - uint64(w.first()) // wraps to huge below first
	if j >= uint64(w.count()) {
		return 0, false
	}
	h = logPrefixBytes + int(j)*headerBytes
	return h, !s.lapsed(w, h, s.tick(s.cfg.Clock.Now()))
}

// Validate checks a beacon key presented by the given client. Real keys are
// consumed on first use so replays are detected. Only the client's shard is
// locked. Keys must be exactly KeyDigits digits: length or character
// mismatches are Unknown (so "007" and "7" never collide).
func (s *Store) Validate(clientIP, key string) Verdict {
	v, ok := rng.ParseFixedDigits(key, s.cfg.KeyDigits)
	if !ok {
		s.stats.hits[Unknown].Add(1)
		return Unknown
	}
	return s.ValidateValue(clientIP, v)
}

// ValidateValue is Validate over an already parsed key value: one inversion
// of P under the client's key tweak gives (n, i), and the verdict is read off
// page view n's header. A value of more than KeyDigits digits is Unknown
// before P is inverted.
func (s *Store) ValidateValue(clientIP string, key uint64) (v Verdict) {
	sh, hash := s.clients.Locate(clientIP)
	sh.Lock()
	defer sh.Unlock()
	defer func() { s.stats.hits[v].Add(1) }()

	cs := s.getLocked(sh, hash, clientIP)
	if cs == nil {
		return Unknown
	}
	sh.Touch(&cs.Node)
	if key >= s.limit {
		return Unknown
	}
	w := s.logOf(sh, cs)
	x := s.perm.invert(&s.bufs[sh.Index()], clientTweak(clientIP, w.incarnation()), kindKey, key)
	h, ok := s.viewLocked(w, x>>8)
	if i := x & 0xff; !ok || !w.has(h, flagDrawn) || i > uint64(s.owed(w.header(h))) {
		return Unknown
	} else if i != 0 {
		return Decoy
	}
	if w.has(h, flagConsumed) {
		return Replayed
	}
	w.mark(h, flagConsumed)
	return Human
}

// PageKeysFor returns the real key and the decoys (appended to decoys) of the
// live page view issued to clientIP under scriptToken — everything its beacon
// script is rendered from. It is the only door a key leaves through: the
// first request marks the page view drawn, from which moment its keys
// validate, and every request returns the same keys. ok is false when the
// client holds no such page view or it is past the TTL, so a script is
// available exactly as long as its key can validate. One inversion of P finds
// the page view and 1+m evaluations give its keys.
func (s *Store) PageKeysFor(clientIP string, scriptToken uint64, decoys []uint64) (key uint64, _ []uint64, ok bool) {
	sh, hash := s.clients.Locate(clientIP)
	sh.Lock()
	defer sh.Unlock()

	cs := s.getLocked(sh, hash, clientIP)
	if cs == nil {
		return 0, decoys, false
	}
	sh.Touch(&cs.Node)
	if scriptToken >= s.limit {
		return 0, decoys, false
	}
	w := s.logOf(sh, cs)
	tweak, buf := clientTweak(clientIP, w.incarnation()), &s.bufs[sh.Index()]
	n := s.perm.invert(buf, tweak, kindScript, scriptToken)
	h, ok := s.viewLocked(w, n)
	if !ok {
		return 0, decoys, false
	}
	if !w.has(h, flagDrawn) {
		w.mark(h, flagDrawn)
		s.stats.drawn.Add(1)
	}
	for i := range 1 + uint64(s.owed(w.header(h))) {
		if v := s.perm.permute(buf, tweak, kindKey, n<<8|i); i == 0 {
			key = v
		} else {
			decoys = append(decoys, v)
		}
	}
	return key, decoys, true
}

// Clients returns the number of client IPs tracked, lock-free.
func (s *Store) Clients() int { return s.clients.Len() }

// Occupancy returns the fraction of the client capacity in use, lock-free.
func (s *Store) Occupancy() float64 { return float64(s.clients.Len()) / maxClients }

// MemoryEstimate returns the store's approximate live memory footprint in
// bytes: the table's chunks of 64-byte client records, chunk directories and
// bucket arrays (its IndexBytes), a spilled window's capacity (charged at
// its capacity: dropping from the front keeps the array it shrinks, and an
// underestimate here is what admission control would OOM on), the shards'
// spill stores and the interned copies of the addresses that are not IP
// addresses. Lock-free and allocation-free; the load-state recomputation
// reads it on the serve path.
func (s *Store) MemoryEstimate() int64 {
	b := s.pinnedBytes.Load() + s.clients.IndexBytes()
	if names := s.names.Load(); names != nil {
		b += names.MemoryEstimate()
	}
	return b
}

// Stats returns a copy of the cumulative counters.
func (s *Store) Stats() Stats {
	return Stats{
		Issued:         s.stats.issued.Load(),
		Drawn:          s.stats.drawn.Load(),
		HumanHits:      s.stats.hits[Human].Load(),
		DecoyHits:      s.stats.hits[Decoy].Load(),
		ReplayHits:     s.stats.hits[Replayed].Load(),
		UnknownHits:    s.stats.hits[Unknown].Load(),
		ExpiredDropped: s.stats.expiredDropped.Load(),
		EvictedClients: s.stats.evictedClients.Load(),
	}
}
