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
// its own mutex, client index, LRU list and key-generation stream, so issuing
// and validating keys for different clients proceeds in parallel. Counters
// are atomic and never serialise the hot path. A shard indexes its clients by
// a maphash of the address under a per-store random seed, in a
// map[uint64]*clientState whose colliding addresses chain through the client
// node. FNV picks the shard, so placement and LRU eviction are the same on
// every run; it must not pick the slot, because many addresses with one FNV
// value are cheap to build and would line up in one chain.
//
// Keys are decimal digit strings on the wire but numbers internally, stored in
// w bytes, the fewest that hold 10^KeyDigits-1 (5 at the default 10 digits, 8
// at MaxKeyDigits). A client is one 64-byte node and one byte log: a 5-byte
// prefix (a base tick, the number of page views), the keys, and one 8-byte
// header per page view (its issue tick as an offset from the base, script-token
// tag, decoy count, drawn and consumed bits). Headers and keys are both in
// issue order; the keys of a page view exist once its script has been
// requested — its real key, then its decoys — so a page nobody asked the
// script of costs its header and no key. The keys sit in one region before the
// headers rather than after each header, so a key is found with one vectorised
// search of an aligned array and its header by a fixed-stride walk. A client
// holds at most maxPerClient (64) page views and the oldest is dropped before
// a new one is appended, so the log never outgrows 5 + 64*(8 + w*(1+m)) bytes
// — 2,117 at the defaults. The log grows into the smallest allocator size
// class that holds it, never by doubling. Validation and the uniqueness check
// are linear scans, and expiry and the cap compact the log in place, so a
// stable working set never reallocates. There is no per-key record and no
// per-client hash table.
//
// A header's tick fits 16 bits because no live page view is more than a TTL
// older than the base: the base is at most every header's tick, and each
// header is at most ttlTicks (under 2^16) past it. The expiry scan moves the
// base up to the oldest survivor and rewrites the survivors' offsets; a
// degraded issue backdated below the base moves it down and rewrites them the
// other way (at most 64 headers, and only under load shedding).
//
// A key is a number from draw to wire, and there is one path it can take:
// IssuePage fills a caller-owned PageKeys without allocating, PageKeysFor draws
// (once) and returns the keys a script download splices in as fixed-width
// digits (PageKeys.AppendKey, jsgen.Variant.RenderKeys), and Validate parses
// the digits a beacon request carries — the only strings the store ever sees,
// because those bytes are the attacker's. ValidateValue refuses a value of
// more than KeyDigits digits before it reads the log: no key is that wide,
// but the sentinel that marks a dead key is.
package keystore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
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
// numbers instead of strings. Configurations asking for more are
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
	// owed at most MaxDecoys.
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
	c.Decoys = min(c.Decoys, MaxDecoys)
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
// TTL/32768, floored at 1ns — quantisation is ~0.006% of the TTL). The TTL in
// ticks is then below 2^16 at every TTL (at most 32,769 from about a second
// up, 65,535 at a TTL of 65,535ns), which is what lets a header store its
// tick in 16 bits. The uint32 tick space covers 131,072 TTLs (~15 years at
// the default 1-hour TTL) before saturating.
const tickResolution = 1 << 15

// The key log's layout (see the package doc). Every field is little-endian.
const (
	// logPrefixBytes is the log's prefix: the u32 base tick, at most every
	// header's issue tick and no more than ttlTicks below any of them —
	// expiry scans are skipped while now-base <= TTL, because no key can have
	// expired yet; it is exact after the first issue and after every scan —
	// then the u8 number of headers (at most maxPerClient).
	logPrefixBytes = 5
	// headerBytes is one page view's header: the coarse issue tick as an
	// offset from the base (u16, see Store.tick), the tokenTag of the page's
	// script token (u32), the decoy keys the page is owed (u8) and the flag
	// byte. Headers are in issue order, not tick order (degraded issues are
	// backdated). All of a page's keys share its issue tick, so they expire
	// together. The headers fill the end of the log, the last
	// batches()*headerBytes bytes.
	headerBytes = 8

	hdrTag    = 2 // offset of the tag in a header
	hdrDecoys = 6 // offset of the decoy count
	hdrFlags  = 7 // offset of the flag byte

	flagDrawn    = 1 // the keys exist: the script has been requested
	flagConsumed = 2 // the real key has validated once
)

// MaxDecoys is the largest decoy count a page view is owed: a header records
// it in one byte. Config.Decoys above it is clamped.
const MaxDecoys = math.MaxUint8

// keyLog is a client's log: the prefix, the key region — each drawn page
// view's run, the real key then the decoys — and the headers.
type keyLog []byte

// base is the prefix's base tick, from which every header's tick counts.
func (l keyLog) base() uint32 { return binary.LittleEndian.Uint32(l) }

// batches is the number of headers in the log.
func (l keyLog) batches() int {
	if len(l) < logPrefixBytes {
		return 0
	}
	return int(l[4])
}

// headers is the offset of the first header: the end of the key region.
func (l keyLog) headers() int { return len(l) - l.batches()*headerBytes }

// tick and tag read the header at offset h.
func (l keyLog) tick(h int) uint32 { return l.base() + uint32(binary.LittleEndian.Uint16(l[h:])) }
func (l keyLog) tag(h int) uint32  { return binary.LittleEndian.Uint32(l[h+hdrTag:]) }

// rebase moves the base to tick, which must be at most every header's tick,
// rewriting every offset so its tick stays put. An offset that would pass
// 2^16-1, which only a clock running backwards can cause, saturates: that
// page view expires early rather than wrapping.
func (l keyLog) rebase(tick uint32) {
	d := int64(l.base()) - int64(tick)
	for h := l.headers(); h < len(l); h += headerBytes {
		off := int64(binary.LittleEndian.Uint16(l[h:])) + d
		binary.LittleEndian.PutUint16(l[h:], uint16(min(off, math.MaxUint16)))
	}
	binary.LittleEndian.PutUint32(l, tick)
}

// keys is the length of the run of the page view whose header is at h: none
// until drawn, then the real key and the decoys.
func (l keyLog) keys(h int) int {
	if l[h+hdrFlags]&flagDrawn == 0 {
		return 0
	}
	return 1 + int(l[h+hdrDecoys])
}

// grow returns l with room for n more bytes. A log that is full moves into
// the smallest allocator size class that holds the new length: appending to
// a nil slice rounds the capacity up to exactly that class, so cap — what
// pinnedBytes charges — is what the allocation occupies, and no more.
func (l keyLog) grow(n int) keyLog {
	if len(l)+n <= cap(l) {
		return l
	}
	g := append(keyLog(nil), make(keyLog, len(l)+n)...)
	return g[:copy(g, l)]
}

// tokenTag folds a script token into the 32 bits a header has room for
// (Fibonacci hashing: the high half of the product mixes every token bit). A
// client holds at most maxPerClient headers, so two of its own tokens share a
// tag with probability ~maxPerClient/2^32, and the first live match wins.
func tokenTag(token uint64) uint32 { return uint32((token * 0x9e3779b97f4a7c15) >> 32) }

// keyWidth is the number of bytes a key of digits decimal digits is stored
// in: the fewest that hold 10^digits-1.
func keyWidth(digits int) int { return (bits.Len64(pow10(digits)-1) + 7) / 8 }

// pow10 is 10^n for n <= MaxKeyDigits.
func pow10(n int) uint64 {
	v := uint64(1)
	for range n {
		v *= 10
	}
	return v
}

// clientState is one tracked client: its address, its key log, and the links
// of its shard's intrusive LRU list (prev = towards the front, most recently
// used) and index chain (hnext: the next client whose address shares the
// index hash). The log is compacted in place (copy-down) when page views are
// dropped, so a stable working set reaches a steady state where IssuePage
// allocates nothing at all.
type clientState struct {
	ip  string
	log keyLog

	prev, next, hnext *clientState
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

// storeShard is one independently locked partition of the key table. The
// index maps an address's seeded hash (Store.indexHash) to the first client
// of its chain.
type storeShard struct {
	mu    sync.Mutex
	src   *rng.Source
	index map[uint64]*clientState
	head  *clientState // most recently used
	tail  *clientState // least recently used
	count int          // live clients
	max   int          // per-shard client cap
}

// Memory costs backing Store.MemoryEstimate, derived from the actual layouts
// so they cannot silently rot when fields change (TestKeystoreStructBudgets
// pins the layouts and TestMemoryEstimateCoversHeap holds the total against
// measured heap). The estimate feeds admission control (see core.LoadState),
// where an overestimate degrades service early and an underestimate OOMs — so
// a log is charged at its capacity, not its length: append's growth leaves
// part of it spare, and copy-down compaction keeps the array it shrinks.
const (
	// clientSlotBytes is the client's share of its shard's index at its
	// emptiest. The index has the session tracker's layout (an 8-byte hash
	// and a pointer per slot), so the same derivation holds: a full-size
	// table is 1,024 slots in 128 groups of 8 control bytes + 8 × 16 B =
	// 17,408 B in the allocator's 18,432-byte class, 18 B a slot, and right
	// after a split at 7/8 load each entry holds 16/7 slots = 41.1 B.
	clientSlotBytes = 42
	// clientBaseBytes is charged per tracked client: the node in its 16-byte
	// allocator size class, plus its index slot.
	clientBaseBytes = (int64(unsafe.Sizeof(clientState{}))+15)&^15 + clientSlotBytes
)

// pinnedBytes is the heap the client pins beyond its node and slot: the
// address string (in its 16-byte size class) and the capacity of the log.
func (cs *clientState) pinnedBytes() int64 {
	return int64(len(cs.ip)+15)&^15 + int64(cap(cs.log))
}

// Store is the key table. It is safe for concurrent use.
type Store struct {
	cfg    Config
	shards []*storeShard
	mask   uint64
	stats  storeStats
	seed   maphash.Seed

	// hash, when set, replaces the seeded index hash. Only tests set it, to
	// force addresses into collision chains.
	hash func(string) uint64

	// A key is stored in width bytes. limit is 10^KeyDigits: no key reaches
	// it, so a value at or above it is refused before the log is read. dead
	// is all-ones in width bytes — above limit, so no key spells it — and
	// overwrites a key found expired before a sweep removed its page view.
	width int
	limit uint64
	dead  uint64

	// Coarse-tick time base (see Store.tick): epoch is set at construction
	// far enough in the past that backdated (degraded) issues never go
	// negative, tickUnit is TTL/tickResolution floored at 1ns, and ttlTicks
	// is the TTL in ticks rounded up, so quantisation can only ever lengthen
	// a key's life (by < 2 ticks ≈ TTL/16384), never expire it early.
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
	s := &Store{cfg: cfg, mask: uint64(cfg.Shards - 1), seed: maphash.MakeSeed()}
	s.width = keyWidth(cfg.KeyDigits)
	s.limit = pow10(cfg.KeyDigits)
	s.dead = ^uint64(0) >> (64 - 8*s.width)
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
			src:   base.Fork(fmt.Sprintf("shard-%d", i)),
			index: make(map[uint64]*clientState),
			max:   perShard,
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

// indexHash is ip's slot hash in its shard's index.
func (s *Store) indexHash(ip string) uint64 {
	if s.hash != nil {
		return s.hash(ip)
	}
	return maphash.String(s.seed, ip)
}

// locate returns ip's shard and its slot hash in the shard's index. Both
// hashes are computed before the shard lock is taken.
func (s *Store) locate(ip string) (*storeShard, uint64) {
	return s.shards[shard.HashString(ip)&s.mask], s.indexHash(ip)
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

// key returns the key stored at log offset c. It loads eight bytes — in
// bounds for any c in the key region, which at least one header follows —
// and masks off those past the key (s.dead is all-ones in exactly its bytes).
func (s *Store) key(l keyLog, c int) uint64 {
	return binary.LittleEndian.Uint64(l[c:]) & s.dead
}

// putKey stores v, which must not exceed s.dead, at log offset c, leaving the
// bytes after the key as they were.
func (s *Store) putKey(l keyLog, c int, v uint64) {
	b := l[c : c+8]
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^s.dead|v)
}

// find returns the log offset of key, or -1 if the log holds no such key. It
// searches the key region for the key's low byte (bytes.IndexByte,
// vectorised), compares the whole key where it finds one, and on a match
// checks that the match starts a key rather than straddling two.
func (s *Store) find(l keyLog, key uint64) int {
	end := l.headers()
	for c := logPrefixBytes; c < end; c++ {
		j := bytes.IndexByte(l[c:end], byte(key))
		if j < 0 {
			break
		}
		if c += j; s.key(l, c) == key && (c-logPrefixBytes)%s.width == 0 {
			return c
		}
	}
	return -1
}

// batchOf returns the header of the page view whose run holds the key at log
// offset c, and the key's index in the run (0 is the real key).
func (s *Store) batchOf(l keyLog, c int) (h, i int) {
	i = (c - logPrefixBytes) / s.width
	for h = l.headers(); i >= l.keys(h); h += headerBytes {
		i -= l.keys(h)
	}
	return h, i
}

// liveKeys counts the keys between log offsets from and to that are not
// dead.
func (s *Store) liveKeys(l keyLog, from, to int) int64 {
	var n int64
	for c := from; c < to; c += s.width {
		if s.key(l, c) != s.dead {
			n++
		}
	}
	return n
}

// --- intrusive LRU and index --------------------------------------------------

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

// lookup returns the shard's client for ip, whose index hash is h, or nil.
func (sh *storeShard) lookup(h uint64, ip string) *clientState {
	for cs := sh.index[h]; cs != nil; cs = cs.hnext {
		if cs.ip == ip {
			return cs
		}
	}
	return nil
}

// unindex removes cs, whose address's index hash is h, from the index.
func (sh *storeShard) unindex(h uint64, cs *clientState) {
	if first := sh.index[h]; first == cs {
		if cs.hnext == nil {
			delete(sh.index, h)
		} else {
			sh.index[h] = cs.hnext
		}
	} else {
		for p := first; p != nil; p = p.hnext {
			if p.hnext == cs {
				p.hnext = cs.hnext
				break
			}
		}
	}
	cs.hnext = nil
	sh.count--
}

// clientLocked returns (creating if needed) the state for ip, whose index
// hash is h, on sh, mirroring creations into the lock-free liveClients
// counter.
func (s *Store) clientLocked(sh *storeShard, h uint64, ip string) *clientState {
	cs := sh.lookup(h, ip)
	if cs == nil {
		cs = &clientState{ip: ip, hnext: sh.index[h]}
		sh.index[h] = cs
		sh.count++
		sh.pushFront(cs)
		s.liveClients.Add(1)
		s.pinnedBytes.Add(cs.pinnedBytes())
	}
	return cs
}

// IssuePage issues one page view to the given client: it draws the per-page
// object tokens into the caller-owned pk and appends a header to the client's
// log recording that the page is owed a real key and the configured number of
// decoys. No key is drawn — pk.Key stays zero and pk.Decoys empty — until the
// page's script is requested (PageKeysFor), so a page view whose script nobody
// downloads holds no key anyone could present. The call allocates nothing at
// steady state and locks only the client's shard.
func (s *Store) IssuePage(clientIP, page string, pk *PageKeys) {
	s.issuePage(clientIP, page, s.cfg.Decoys, 0, pk)
}

// IssuePageDegraded is IssuePage for a load-shedding serving layer: the page
// is owed decoys decoy keys (instead of the configured count) and its issue
// timestamp is backdated so all its keys expire after ttl instead of the
// configured TTL. Validation and expiry are untouched — a shorter-lived key
// is simply an older one. Degraded pages stay fully verifiable (a real key
// beacon still proves a human); they just pin less proxy memory per
// anonymous client while the tracker is under pressure.
func (s *Store) IssuePageDegraded(clientIP, page string, decoys int, ttl time.Duration, pk *PageKeys) {
	s.issuePage(clientIP, page, max(decoys, 0), ttl, pk)
}

// issuePage is the locked body of every issue: one LRU touch, one expiry
// scan, one header, then the per-shard client cap. A ttl in (0, TTL)
// backdates the page view's issue tick so it expires after ttl.
func (s *Store) issuePage(clientIP, page string, decoys int, ttl time.Duration, pk *PageKeys) {
	sh, hash := s.locate(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	now := s.cfg.Clock.Now()
	nowTick := s.tick(now)
	issueTick := nowTick
	if ttl > 0 && ttl < s.cfg.TTL {
		issueTick = s.tick(now.Add(ttl - s.cfg.TTL))
	}
	cs := s.clientLocked(sh, hash, clientIP)
	sh.moveToFront(cs)
	s.expireClientLocked(cs, nowTick)

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
	s.appendLocked(cs, issueTick, tokenTag(pk.ScriptToken), min(decoys, MaxDecoys))
	if grown := cs.pinnedBytes() - pinned; grown != 0 {
		s.pinnedBytes.Add(grown)
	}
	s.stats.issued.Add(1)

	s.enforceClientCapLocked(sh)
}

// appendLocked appends an undrawn page view's header to the client's log. A
// client holds at most maxPerClient page views: at the cap the oldest issue —
// the first run and the first header — is dropped first, so the log never
// grows past the bound the package doc gives. The expiry scan has run at
// tick's issue time, so tick is at most ttlTicks past the base; a backdated
// tick below it becomes the base.
func (s *Store) appendLocked(cs *clientState, tick, tag uint32, decoys int) {
	l := cs.log
	if len(l) == 0 {
		l = l.grow(logPrefixBytes + headerBytes)[:logPrefixBytes]
	}
	n := l.batches()
	if n == maxPerClient {
		h := l.headers()
		run := l.keys(h) * s.width
		copy(l[logPrefixBytes:], l[logPrefixBytes+run:h])
		l = l[:h-run+copy(l[h-run:], l[h+headerBytes:])]
		n--
		l[4] = byte(n)
	}
	if n == 0 {
		binary.LittleEndian.PutUint32(l, tick)
	} else if tick < l.base() {
		l.rebase(tick)
	}
	h := len(l)
	l = l.grow(headerBytes)[:h+headerBytes]
	binary.LittleEndian.PutUint16(l[h:], uint16(tick-l.base()))
	binary.LittleEndian.PutUint32(l[h+hdrTag:], tag)
	l[h+hdrDecoys] = byte(decoys)
	l[h+hdrFlags] = 0
	l[4] = byte(n + 1)
	cs.log = l
}

// drawLocked draws the keys of the undrawn page view whose header is at h
// and whose run belongs at key offset at: the real key, then the decoys,
// inserted there so the key region stays in issue order. Each draw must
// differ from every key the client holds and from the draws before it; the
// slots not yet drawn hold the dead sentinel meanwhile, which no draw equals.
// It returns the bytes inserted, by which the header has moved.
func (s *Store) drawLocked(sh *storeShard, cs *clientState, h, at int) int {
	size := (1 + int(cs.log[h+hdrDecoys])) * s.width
	pinned := cs.pinnedBytes()
	tail := len(cs.log)
	l := cs.log.grow(size)[:tail+size]
	copy(l[at+size:], l[at:tail])
	for i := at; i < at+size; i++ {
		l[i] = 0xff
	}
	l[h+size+hdrFlags] |= flagDrawn
	for c := at; c < at+size; c += s.width {
		v := sh.src.DigitKeyValue(s.cfg.KeyDigits)
		for s.find(l, v) >= 0 {
			v = sh.src.DigitKeyValue(s.cfg.KeyDigits)
		}
		s.putKey(l, c, v)
	}
	cs.log = l
	if grown := cs.pinnedBytes() - pinned; grown != 0 {
		s.pinnedBytes.Add(grown)
	}
	s.stats.drawn.Add(1)
	return size
}

// expireClientLocked drops the page views older than the TTL for one client.
// Headers are not in tick order, so this is a scan over them that moves each
// span of surviving runs, then each span of surviving headers, down in place;
// it only runs when the oldest page view can actually have expired (tracked
// by the prefix's base tick, re-derived exactly from the survivors on every
// scan), so hot-path issues skip it. The survivors' offsets are rewritten
// against the new base.
func (s *Store) expireClientLocked(cs *clientState, nowTick uint32) {
	l := cs.log
	if l.batches() == 0 || !s.expired(nowTick, l.base()) {
		return
	}
	minSurvivor := nowTick
	first := l.headers()
	var dropped int64
	to, from, off := logPrefixBytes, logPrefixBytes, logPrefixBytes
	for h := first; h < len(l); h += headerBytes {
		run := l.keys(h) * s.width
		if tick := l.tick(h); s.expired(nowTick, tick) {
			to += copy(l[to:], l[from:off])
			dropped += s.liveKeys(l, off, off+run)
			from = off + run
		} else {
			minSurvivor = min(minSurvivor, tick)
		}
		off += run
	}
	to += copy(l[to:], l[from:first])
	kept, from := 0, first
	for h := first; h < len(l); h += headerBytes {
		if s.expired(nowTick, l.tick(h)) {
			to += copy(l[to:], l[from:h])
			from = h + headerBytes
		} else {
			kept++
		}
	}
	to += copy(l[to:], l[from:])
	s.stats.expiredDropped.Add(dropped)
	l[4] = byte(kept)
	l = l[:to]
	l.rebase(minSurvivor)
	cs.log = l
}

// enforceClientCapLocked bounds the number of distinct clients in the shard.
func (s *Store) enforceClientCapLocked(sh *storeShard) {
	for sh.count > sh.max {
		victim := sh.tail
		if victim == nil {
			return
		}
		sh.unlink(victim)
		sh.unindex(s.indexHash(victim.ip), victim)
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

// ValidateValue is Validate over an already parsed key value: one scan of the
// client's log for the key. A value of more than KeyDigits digits is Unknown
// before the log is read: no key is that wide, and the dead sentinel, which
// a scan would otherwise find in the slot of every key that died unswept, is.
func (s *Store) ValidateValue(clientIP string, key uint64) Verdict {
	sh, hash := s.locate(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	cs := sh.lookup(hash, clientIP)
	if cs == nil {
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	sh.moveToFront(cs)
	if key >= s.limit {
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	l := cs.log
	c := s.find(l, key)
	if c < 0 {
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	h, i := s.batchOf(l, c)
	if s.expired(s.tick(s.cfg.Clock.Now()), l.tick(h)) {
		s.putKey(l, c, s.dead)
		s.stats.expiredDropped.Add(1)
		s.stats.unknownHits.Add(1)
		return Unknown
	}
	if i != 0 {
		s.stats.decoyHits.Add(1)
		return Decoy
	}
	if l[h+hdrFlags]&flagConsumed != 0 {
		s.stats.replayHits.Add(1)
		return Replayed
	}
	l[h+hdrFlags] |= flagConsumed
	s.stats.humanHits.Add(1)
	return Human
}

// PageKeysFor returns the real key and the decoys (appended to decoys) of the
// live page view issued to clientIP under scriptToken — everything a page's
// beacon script is rendered from, so the serving layer stores no script. It is
// the only door a key leaves through, and the first request for a live page
// view is what draws its keys; every later request returns the same ones. ok
// is false when the client holds no such page view or it is past the TTL
// (judged exactly as ValidateValue judges its real key): a script is available
// precisely as long as the key it carries can still validate. The scan is
// bounded by maxPerClient; only the client's shard is locked.
func (s *Store) PageKeysFor(clientIP string, scriptToken uint64, decoys []uint64) (key uint64, _ []uint64, ok bool) {
	sh, hash := s.locate(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	cs := sh.lookup(hash, clientIP)
	if cs == nil {
		return 0, decoys, false
	}
	sh.moveToFront(cs)
	tag := tokenTag(scriptToken)
	nowTick := s.tick(s.cfg.Clock.Now())
	off := logPrefixBytes // the key offset of the run of the page view at h
	for h := cs.log.headers(); h < len(cs.log); h += headerBytes {
		if cs.log.tag(h) == tag && !s.expired(nowTick, cs.log.tick(h)) {
			if cs.log.keys(h) == 0 {
				h += s.drawLocked(sh, cs, h, off)
			}
			if key = s.key(cs.log, off); key != s.dead {
				for c := off + s.width; c < off+cs.log.keys(h)*s.width; c += s.width {
					decoys = append(decoys, s.key(cs.log, c))
				}
				return key, decoys, true
			}
		}
		off += cs.log.keys(h) * s.width
	}
	return 0, decoys, false
}

// OutstandingKeys returns the number of drawn, unexpired keys currently stored
// for the client (real plus decoys). It is primarily for tests and monitoring.
func (s *Store) OutstandingKeys(clientIP string) int {
	sh, hash := s.locate(clientIP)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cs := sh.lookup(hash, clientIP)
	if cs == nil {
		return 0
	}
	return int(s.liveKeys(cs.log, logPrefixBytes, cs.log.headers()))
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
// bytes: per client, its 64-byte node and index slot (clientBaseBytes), its
// address string and its log's capacity. Lock-free and allocation-free; the
// load-state recomputation reads it on the serve path.
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
