package keystore

import (
	"fmt"
	"time"

	"botdetect/internal/rng"
	"botdetect/internal/shard"
)

// refStore is the reference model the differential test drives next to
// Store: a hash map of key records per client and a queue of page views that
// each own their keys, kept single-threaded. Like Store it draws a page's keys
// on the first PageKeysFor for a live batch, not at issue. It shares only the
// value types (Config, PageKeys, Verdict, Stats), tokenTag and the shard/rng
// helpers with the code under test; every storage and expiry rule is its own.
type refStore struct {
	cfg    Config
	shards []*refShard
	mask   uint64
	stats  Stats

	epoch    time.Time
	tickUnit time.Duration
	ttlTicks uint32
}

type refRecord struct {
	tick     uint32
	decoy    bool
	consumed bool
}

// refBatch is one issued page view. keys is nil until the script is first
// requested; then it holds the real key followed by the n decoys.
type refBatch struct {
	tick uint32
	tag  uint32
	n    int
	keys []uint64
}

type refClient struct {
	ip         string
	keys       map[uint64]refRecord
	queue      []*refBatch
	oldestTick uint32
}

type refShard struct {
	src     *rng.Source
	clients map[string]*refClient
	lru     []*refClient // most recently used first
	max     int
}

// newRefStore takes the client cap as an argument: the differential lowers it
// on both stores (capClients on the real one).
func newRefStore(cfg Config, clients int) *refStore {
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
			max:     shard.PerShardCap(clients, cfg.Shards),
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
	s.issuePage(ip, page, s.cfg.Decoys, 0, pk)
}

func (s *refStore) IssuePageDegraded(ip, page string, decoys int, ttl time.Duration, pk *PageKeys) {
	s.issuePage(ip, page, max(decoys, 0), ttl, pk)
}

func (s *refStore) issuePage(ip, page string, decoys int, ttl time.Duration, pk *PageKeys) {
	sh := s.shard(ip)
	now := s.cfg.Clock.Now()
	issuedAt := now
	if ttl > 0 && ttl < s.cfg.TTL {
		issuedAt = now.Add(ttl - s.cfg.TTL)
	}
	cs := sh.client(ip)
	s.expireClient(cs, s.tick(now))
	issueTick := s.tick(issuedAt)
	if len(cs.queue) == 0 || issueTick < cs.oldestTick {
		cs.oldestTick = issueTick
	}
	digits := s.cfg.KeyDigits
	*pk = PageKeys{Page: page, Digits: digits, IssuedAt: now, Decoys: pk.Decoys[:0]}
	pk.CSSToken = sh.src.DigitKeyValue(digits)
	pk.ScriptToken = sh.src.DigitKeyValue(digits)
	pk.HiddenToken = sh.src.DigitKeyValue(digits)
	cs.queue = append(cs.queue, &refBatch{tick: issueTick, tag: tokenTag(pk.ScriptToken), n: decoys})
	s.stats.Issued++
	s.enforceCaps(sh, cs)
}

// draw gives the batch its keys: the real key, then the decoys, each unlike
// any key the client holds.
func (s *refStore) draw(sh *refShard, cs *refClient, b *refBatch) {
	b.keys = make([]uint64, 0, 1+b.n)
	for len(b.keys) < 1+b.n {
		v := sh.src.DigitKeyValue(s.cfg.KeyDigits)
		if _, exists := cs.keys[v]; exists {
			continue
		}
		cs.keys[v] = refRecord{tick: b.tick, decoy: len(b.keys) > 0}
		b.keys = append(b.keys, v)
	}
	s.stats.Drawn++
}

// forget removes the batch's keys from the client's table and reports how
// many were still there (Validate deletes an expired key on sight).
func (cs *refClient) forget(b *refBatch) (n int64) {
	for _, k := range b.keys {
		if _, ok := cs.keys[k]; ok {
			delete(cs.keys, k)
			n++
		}
	}
	return n
}

func (s *refStore) expireClient(cs *refClient, nowTick uint32) {
	if len(cs.queue) == 0 || !s.expired(nowTick, cs.oldestTick) {
		return
	}
	minSurvivor := nowTick
	var keep []*refBatch
	for _, b := range cs.queue {
		if s.expired(nowTick, b.tick) {
			s.stats.ExpiredDropped += cs.forget(b)
			continue
		}
		minSurvivor = min(minSurvivor, b.tick)
		keep = append(keep, b)
	}
	cs.queue = keep
	cs.oldestTick = minSurvivor
}

func (s *refStore) enforceCaps(sh *refShard, cs *refClient) {
	for len(cs.queue) > maxPerClient {
		cs.forget(cs.queue[0])
		cs.queue = cs.queue[1:]
	}
	for len(sh.lru) > sh.max {
		victim := sh.lru[len(sh.lru)-1]
		sh.lru = sh.lru[:len(sh.lru)-1]
		delete(sh.clients, victim.ip)
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
	nowTick := s.tick(s.cfg.Clock.Now())
	for _, b := range cs.queue {
		if b.tag != tokenTag(scriptToken) || s.expired(nowTick, b.tick) {
			continue
		}
		if b.keys == nil {
			s.draw(sh, cs, b)
		}
		if _, live := cs.keys[b.keys[0]]; live {
			return b.keys[0], append(decoys, b.keys[1:]...), true
		}
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
