package keystore

import (
	"time"

	"botdetect/internal/rng"
	"botdetect/internal/shard"
)

// refStore is the reference model the differential test drives next to
// Store: per client, a queue of page-view records — each with its exact
// issue tick, decoy count and drawn and consumed flags — the number of the
// first one and the client's incarnation, kept single-threaded. It shares
// only the value types (Config, PageKeys, Verdict, Stats), the permutation
// (perm, permKey, clientTweak) and the shard helpers with the code under
// test; its storage, numbering, incarnations and expiry rules are its own.
type refStore struct {
	cfg         Config
	perm        perm
	buf         permBuf
	shards      []*refShard
	mask        uint64
	stats       Stats
	views       uint64 // page-view numbers per incarnation
	incarnation uint32 // the last one handed out

	epoch    time.Time
	tickUnit time.Duration
	ttlTicks uint32
}

// refView is one issued page view.
type refView struct {
	tick            uint32
	decoys          int
	drawn, consumed bool
}

type refClient struct {
	ip          string
	incarnation uint32
	first       uint64 // the number of views[0]
	views       []*refView
}

type refShard struct {
	clients map[string]*refClient
	lru     []*refClient // most recently used first
	max     int
}

// newRefStore takes the client cap as an argument: the differential lowers it
// on both stores (capClients on the real one).
func newRefStore(cfg Config, clients int) *refStore {
	cfg = cfg.withDefaults()
	s := &refStore{cfg: cfg, mask: uint64(cfg.Shards - 1), perm: newPerm(permKey(cfg.Seed), cfg.KeyDigits)}
	s.views = min(1<<24-1, pow10(cfg.KeyDigits)/256)
	s.tickUnit = max(cfg.TTL/tickResolution, 1)
	s.ttlTicks = uint32((cfg.TTL + s.tickUnit - 1) / s.tickUnit)
	s.epoch = cfg.Clock.Now().Add(-cfg.TTL - 4*s.tickUnit)
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &refShard{
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
	cs, ok := sh.clients[ip]
	if !ok {
		s.incarnation++
		cs = &refClient{ip: ip, incarnation: s.incarnation}
		sh.clients[ip] = cs
	}
	sh.touch(cs)
	nowTick := s.tick(now)
	for len(cs.views) > 0 && s.expired(nowTick, cs.views[0].tick) {
		s.dropOldest(cs, nowTick)
	}
	switch {
	case cs.first+uint64(len(cs.views)) >= s.views: // the numbers are used up
		for len(cs.views) > 0 {
			s.dropOldest(cs, nowTick)
		}
		s.incarnation++
		cs.incarnation, cs.first = s.incarnation, 0
	case len(cs.views) == maxPerClient:
		s.dropOldest(cs, nowTick)
	}
	n := cs.first + uint64(len(cs.views))
	cs.views = append(cs.views, &refView{tick: s.tick(issuedAt), decoys: min(decoys, MaxDecoys)})

	tweak := clientTweak(ip, cs.incarnation)
	*pk = PageKeys{Page: page, Digits: s.cfg.KeyDigits, IssuedAt: now, Decoys: pk.Decoys[:0]}
	pk.CSSToken = s.perm.permute(&s.buf, tweak, kindCSS, n)
	pk.ScriptToken = s.perm.permute(&s.buf, tweak, kindScript, n)
	pk.HiddenToken = s.perm.permute(&s.buf, tweak, kindHidden, n)
	s.stats.Issued++
	for len(sh.lru) > sh.max {
		victim := sh.lru[len(sh.lru)-1]
		sh.lru = sh.lru[:len(sh.lru)-1]
		delete(sh.clients, victim.ip)
		s.stats.EvictedClients++
	}
}

// dropOldest drops the client's oldest page view; its keys count as expired
// if it was drawn and is past its TTL.
func (s *refStore) dropOldest(cs *refClient, nowTick uint32) {
	if v := cs.views[0]; v.drawn && s.expired(nowTick, v.tick) {
		s.stats.ExpiredDropped += int64(1 + v.decoys)
	}
	cs.views = cs.views[1:]
	cs.first++
}

// live returns page view n of the client if the client holds it and it is
// within its TTL.
func (s *refStore) live(cs *refClient, n uint64) *refView {
	if n < cs.first || n-cs.first >= uint64(len(cs.views)) {
		return nil
	}
	if v := cs.views[n-cs.first]; !s.expired(s.tick(s.cfg.Clock.Now()), v.tick) {
		return v
	}
	return nil
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
	if key >= pow10(s.cfg.KeyDigits) {
		s.stats.UnknownHits++
		return Unknown
	}
	x := s.perm.invert(&s.buf, clientTweak(ip, cs.incarnation), kindKey, key)
	v, i := s.live(cs, x/256), int(x%256)
	switch {
	case v == nil || !v.drawn || i > v.decoys:
		s.stats.UnknownHits++
		return Unknown
	case i > 0:
		s.stats.DecoyHits++
		return Decoy
	case v.consumed:
		s.stats.ReplayHits++
		return Replayed
	}
	v.consumed = true
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
	if scriptToken >= pow10(s.cfg.KeyDigits) {
		return 0, decoys, false
	}
	tweak := clientTweak(ip, cs.incarnation)
	n := s.perm.invert(&s.buf, tweak, kindScript, scriptToken)
	v := s.live(cs, n)
	if v == nil {
		return 0, decoys, false
	}
	if !v.drawn {
		v.drawn = true
		s.stats.Drawn++
	}
	for i := 1; i <= v.decoys; i++ {
		decoys = append(decoys, s.perm.permute(&s.buf, tweak, kindKey, n*256+uint64(i)))
	}
	return s.perm.permute(&s.buf, tweak, kindKey, n*256), decoys, true
}

func (s *refStore) outstandingKeys(ip string) int {
	n := 0
	if cs, ok := s.shard(ip).clients[ip]; ok {
		for _, v := range cs.views {
			if v.drawn {
				n += 1 + v.decoys
			}
		}
	}
	return n
}

func (s *refStore) Clients() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.clients)
	}
	return n
}
