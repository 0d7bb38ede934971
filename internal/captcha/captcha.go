// Package captcha provides the CAPTCHA substrate the paper uses to collect
// ground-truth human labels (Section 3.1): an optional challenge offered to
// clients with an incentive (higher bandwidth), whose solution marks the
// session as human for labelling and evaluation purposes.
//
// The paper used a distorted-image library; this substitution issues textual
// arithmetic challenges, which preserves the only property downstream code
// consumes — "this session solved a challenge a scripted robot would not" —
// while staying dependency-free. A solve model for simulated clients lives
// with the traffic agents, not here.
package captcha

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/rng"
	"botdetect/internal/session"
)

// Challenge is one issued CAPTCHA.
type Challenge struct {
	// ID identifies the challenge in the verification request.
	ID string
	// Question is the human-readable challenge text.
	Question string
	// IssuedAt is when the challenge was generated.
	IssuedAt time.Time
	// expires is when the challenge stops being accepted.
	expires time.Time
	// answer is the expected answer (not exported; verification only).
	answer string
	// key is the session the challenge was issued to.
	key session.Key
}

// Config controls the service.
type Config struct {
	// Seed drives challenge generation.
	Seed uint64
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
}

const (
	// challengeTTL is how long a challenge remains solvable.
	challengeTTL = 10 * time.Minute
	// maxOutstanding caps stored unsolved challenges; the oldest are evicted.
	maxOutstanding = 100000
	// maxAttempts caps verification attempts per challenge.
	maxAttempts = 3
)

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// Stats are cumulative counters.
type Stats struct {
	Issued  int64
	Passed  int64
	Failed  int64
	Expired int64
	Unknown int64
	Evicted int64
}

type stored struct {
	ch       Challenge
	attempts int
}

// Service issues and verifies challenges. It is safe for concurrent use.
type Service struct {
	cfg Config

	mu          sync.Mutex
	src         *rng.Source
	outstanding map[string]*stored
	order       []string // issue order for eviction
	stats       Stats
}

// NewService creates a Service.
func NewService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:         cfg,
		src:         rng.New(cfg.Seed).Fork("captcha"),
		outstanding: make(map[string]*stored),
	}
}

// Issue generates a challenge for the session.
func (s *Service) Issue(key session.Key) Challenge {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()

	a := s.src.Intn(90) + 10
	b := s.src.Intn(9) + 1
	var question string
	var answer int
	switch s.src.Intn(3) {
	case 0:
		question = fmt.Sprintf("What is %d plus %d?", a, b)
		answer = a + b
	case 1:
		question = fmt.Sprintf("What is %d minus %d?", a, b)
		answer = a - b
	default:
		question = fmt.Sprintf("What is %d times %d?", b, s.src.Intn(9)+1)
		bb := (answer) // placeholder to keep structure clear
		_ = bb
		// Recompute deterministically: parse the factors back out of the
		// question is fragile, so regenerate with stored operands instead.
		parts := strings.Fields(question)
		x, _ := strconv.Atoi(parts[2])
		y, _ := strconv.Atoi(strings.TrimSuffix(parts[4], "?"))
		answer = x * y
	}

	ch := Challenge{
		ID:       s.src.HexKey(16),
		Question: question,
		IssuedAt: now,
		expires:  now.Add(challengeTTL),
		answer:   strconv.Itoa(answer),
		key:      key,
	}
	s.outstanding[ch.ID] = &stored{ch: ch}
	s.order = append(s.order, ch.ID)
	s.stats.Issued++
	s.evictLocked()
	return ch
}

func (s *Service) evictLocked() {
	for len(s.outstanding) > maxOutstanding && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.outstanding[victim]; ok {
			delete(s.outstanding, victim)
			s.stats.Evicted++
		}
	}
}

// Verify checks an answer for the challenge with the given ID. The service
// keeps no record of who passed: the caller marks the session
// (core.Engine.MarkCaptchaPassed), and the record ends with the session.
func (s *Service) Verify(id, answer string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.outstanding[id]
	if !ok {
		s.stats.Unknown++
		return false
	}
	now := s.cfg.Clock.Now()
	if now.After(st.ch.expires) {
		delete(s.outstanding, id)
		s.stats.Expired++
		return false
	}
	st.attempts++
	if strings.TrimSpace(answer) == st.ch.answer {
		delete(s.outstanding, id)
		s.stats.Passed++
		return true
	}
	if st.attempts >= maxAttempts {
		delete(s.outstanding, id)
	}
	s.stats.Failed++
	return false
}

// Outstanding returns the number of unsolved, unexpired challenges stored.
func (s *Service) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outstanding)
}

// Stats returns a copy of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Answer exposes the expected answer of a challenge the service itself
// issued. It exists for the simulator's human solve model and for tests;
// a production deployment never calls it.
func (s *Service) Answer(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.outstanding[id]
	if !ok {
		return "", false
	}
	return st.ch.answer, true
}
