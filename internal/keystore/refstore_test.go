package keystore

import (
	"fmt"
	"time"

	"botdetect/internal/rng"
	"botdetect/internal/shard"
)

// refStore is the reference model the differential test drives next to
// Store: the hash-map-per-client table the flat key log replaced (one
// refRecord per key in a map, an issue queue and a decoy arena per client),
// kept single-threaded and without the interned page handle nothing read. It
// shares only the value types (Config, PageKeys, Verdict, Stats), tokenTag
// and the shard/rng helpers with the code under test; every storage and
// expiry rule is its own.
type refStore struct {
	cfg    Config
	shards []*refShard
	mask   uint64
	stats  Stats

	epoch    time.Time
	tickUnit time.Duration
	ttlTicks uint32

	liveKeys int64
}

type refRecord struct {
	tick     uint32
	decoy    bool
	consumed bool
}

type refBatch struct {
	key uint64
	tag uint32
	n   int
}

type refClient struct {
	ip         string
	keys       map[uint64]refRecord
	queue      []refBatch
	decoys     []uint64
	oldestTick uint32
}

type refShard struct {
	src     *rng.Source
	clients map[string]*refClient
	lru     []*refClient // most recently used first
	max     int
}

func newRefStore(cfg Config) *refStore {
	cfg = cfg.withDefaults()
	s := &refStore{cfg: cfg, mask: uint64(cfg.Shards - 1)}
	s.tickUnit = max(cfg.TTL/tickResolution, 1)
	s.ttlTicks = uint32((cfg.TTL + s.tickUnit - 1) / s.tickUnit)
	s.epoch = cfg.Clock.Now().Add(-cfg.TTL - 4*s.tickUnit)
	base := rng.New(cfg.Seed).Fork("keystore")
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &refShard{
			src:     base.Fork(fmt.Sprintf("shard-%d", i)),
			clients: make(map[string]*refClient),
			max:     shard.PerShardCap(cfg.MaxClients, cfg.Shards),
		})
	}
	return s
}

func (s *refStore) shard(ip string) *refShard { return s.shards[shard.HashString(ip)&s.mask] }

func (s *refStore) tick(t time.Time) uint32 {
	d := t.Sub(s.epoch)
	if d < 0 {
		return 0
	}
	return uint32(min(int64(d)/int64(s.tickUnit), int64(^uint32(0))))
}

func (s *refStore) expired(nowTick, recTick uint32) bool {
	return int64(nowTick)-int64(recTick) > int64(s.ttlTicks)
}

func (sh *refShard) touch(cs *refClient) {
	for i, c := range sh.lru {
		if c == cs {
			copy(sh.lru[1:i+1], sh.lru[:i])
			sh.lru[0] = cs
			return
		}
	}
	sh.lru = append([]*refClient{cs}, sh.lru...)
}

func (sh *refShard) client(ip string) *refClient {
	cs, ok := sh.clients[ip]
	if !ok {
		cs = &refClient{ip: ip, keys: make(map[uint64]refRecord)}
		sh.clients[ip] = cs
	}
	sh.touch(cs)
	return cs
}

func (s *refStore) IssuePage(ip, page string, pk *PageKeys) {
	sh := s.shard(ip)
	now := s.cfg.Clock.Now()
	cs := sh.client(ip)
	s.expireClient(cs, s.tick(now))
	s.issuePage(sh, cs, page, now, s.tick(now), s.cfg.Decoys, pk)
	s.enforceCaps(sh, cs)
}

func (s *refStore) IssuePageDegraded(ip, page string, decoys int, ttl time.Duration, pk *PageKeys) {
	sh := s.shard(ip)
	now := s.cfg.Clock.Now()
	issuedAt := now
	if ttl > 0 && ttl < s.cfg.TTL {
		issuedAt = now.Add(ttl - s.cfg.TTL)
	}
	cs := sh.client(ip)
	s.expireClient(cs, s.tick(now))
	s.issuePage(sh, cs, page, now, s.tick(issuedAt), max(decoys, 0), pk)
	s.enforceCaps(sh, cs)
}

func (s *refStore) issuePage(sh *refShard, cs *refClient, page string, now time.Time, issueTick uint32, decoys int, pk *PageKeys) {
	if len(cs.keys) == 0 || issueTick < cs.oldestTick {
		cs.oldestTick = issueTick
	}
	digits := s.cfg.KeyDigits
	pk.Page, pk.Digits, pk.IssuedAt = page, digits, now
	pk.Key = s.uniqueKey(sh, cs)
	pk.CSSToken = sh.src.DigitKeyValue(digits)
	pk.ScriptToken = sh.src.DigitKeyValue(digits)
	pk.HiddenToken = sh.src.DigitKeyValue(digits)
	cs.keys[pk.Key] = refRecord{tick: issueTick}
	pk.Decoys = pk.Decoys[:0]
	for i := 0; i < decoys; i++ {
		d := s.uniqueKey(sh, cs)
		pk.Decoys = append(pk.Decoys, d)
		cs.decoys = append(cs.decoys, d)
		cs.keys[d] = refRecord{tick: issueTick, decoy: true}
	}
	cs.queue = append(cs.queue, refBatch{key: pk.Key, tag: tokenTag(pk.ScriptToken), n: decoys})
	s.stats.Issued++
	s.liveKeys += int64(1 + decoys)
}

func (s *refStore) uniqueKey(sh *refShard, cs *refClient) uint64 {
	for {
		v := sh.src.DigitKeyValue(s.cfg.KeyDigits)
		if _, exists := cs.keys[v]; !exists {
			return v
		}
	}
}

func (s *refStore) expireClient(cs *refClient, nowTick uint32) {
	if len(cs.keys) == 0 || !s.expired(nowTick, cs.oldestTick) {
		return
	}
	minSurvivor := nowTick
	for k, rec := range cs.keys {
		if s.expired(nowTick, rec.tick) {
			delete(cs.keys, k)
			s.liveKeys--
			s.stats.ExpiredDropped++
		} else {
			minSurvivor = min(minSurvivor, rec.tick)
		}
	}
	var keepQ []refBatch
	var keepD []uint64
	off := 0
	for _, b := range cs.queue {
		run := cs.decoys[off : off+b.n]
		off += b.n
		if _, ok := cs.keys[b.key]; ok {
			keepQ, keepD = append(keepQ, b), append(keepD, run...)
		}
	}
	cs.queue, cs.decoys = keepQ, keepD
	cs.oldestTick = minSurvivor
}

func (s *refStore) enforceCaps(sh *refShard, cs *refClient) {
	for len(cs.queue) > s.cfg.MaxPerClient {
		b := cs.queue[0]
		for _, k := range append([]uint64{b.key}, cs.decoys[:b.n]...) {
			if _, ok := cs.keys[k]; ok {
				delete(cs.keys, k)
				s.liveKeys--
			}
		}
		cs.queue, cs.decoys = cs.queue[1:], cs.decoys[b.n:]
	}
	for len(sh.lru) > sh.max {
		victim := sh.lru[len(sh.lru)-1]
		sh.lru = sh.lru[:len(sh.lru)-1]
		delete(sh.clients, victim.ip)
		s.liveKeys -= int64(len(victim.keys))
		s.stats.EvictedClients++
	}
}

func (s *refStore) Validate(ip, key string) Verdict {
	v, ok := rng.ParseFixedDigits(key, s.cfg.KeyDigits)
	if !ok {
		s.stats.UnknownHits++
		return Unknown
	}
	return s.ValidateValue(ip, v)
}

func (s *refStore) ValidateValue(ip string, key uint64) Verdict {
	sh := s.shard(ip)
	cs, ok := sh.clients[ip]
	if !ok {
		s.stats.UnknownHits++
		return Unknown
	}
	sh.touch(cs)
	rec, ok := cs.keys[key]
	switch {
	case !ok:
		s.stats.UnknownHits++
		return Unknown
	case s.expired(s.tick(s.cfg.Clock.Now()), rec.tick):
		delete(cs.keys, key)
		s.liveKeys--
		s.stats.ExpiredDropped++
		s.stats.UnknownHits++
		return Unknown
	case rec.decoy:
		s.stats.DecoyHits++
		return Decoy
	case rec.consumed:
		s.stats.ReplayHits++
		return Replayed
	}
	rec.consumed = true
	cs.keys[key] = rec
	s.stats.HumanHits++
	return Human
}

func (s *refStore) PageKeysFor(ip string, scriptToken uint64, decoys []uint64) (uint64, []uint64, bool) {
	sh := s.shard(ip)
	cs, found := sh.clients[ip]
	if !found {
		return 0, decoys, false
	}
	sh.touch(cs)
	off := 0
	for _, b := range cs.queue {
		if b.tag == tokenTag(scriptToken) {
			if rec, live := cs.keys[b.key]; live && !s.expired(s.tick(s.cfg.Clock.Now()), rec.tick) {
				return b.key, append(decoys, cs.decoys[off:off+b.n]...), true
			}
		}
		off += b.n
	}
	return 0, decoys, false
}

func (s *refStore) OutstandingKeys(ip string) int {
	if cs, ok := s.shard(ip).clients[ip]; ok {
		return len(cs.keys)
	}
	return 0
}

func (s *refStore) Clients() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.clients)
	}
	return n
}
