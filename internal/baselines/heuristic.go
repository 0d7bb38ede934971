// Package baselines implements the comparison detectors discussed in the
// paper's related-work section: the advisory robots.txt / User-Agent
// heuristics that well-behaved robots satisfy (and malicious ones ignore),
// and a Tan & Kumar style navigational-pattern classifier, an offline
// decision-tree learner over per-session features that needs a relatively
// large number of requests to become accurate. Both serve as baselines for
// the paper's real-time techniques in the benchmark harness.
package baselines

import (
	"strings"
	"sync"

	"botdetect/internal/logfmt"
	"botdetect/internal/session"
)

// knownBotAgentFragments are lowercase substrings that well-known, declared
// robots put in their User-Agent strings (the robot exclusion protocol asks
// robots to identify themselves).
var knownBotAgentFragments = []string{
	"bot", "crawler", "spider", "slurp", "fetch", "wget", "curl",
	"libwww", "python", "java/", "harvest", "scan", "archiver", "indexer",
}

// AgentLooksLikeRobot reports whether the User-Agent string declares a robot.
func AgentLooksLikeRobot(userAgent string) bool {
	ua := strings.ToLower(userAgent)
	if ua == "" || ua == "-" {
		return true // real browsers always send an agent string
	}
	for _, frag := range knownBotAgentFragments {
		if strings.Contains(ua, frag) {
			return true
		}
	}
	return false
}

// Heuristic is the advisory baseline: a session is a robot if its User-Agent
// declares one or if it fetched /robots.txt. It detects only well-behaved
// robots; robots that forge browser agents pass it, which is precisely the
// limitation that motivates the paper.
type Heuristic struct {
	mu            sync.Mutex
	fetchedRobots map[session.Key]bool
}

// NewHeuristic creates the heuristic baseline.
func NewHeuristic() *Heuristic {
	return &Heuristic{fetchedRobots: make(map[session.Key]bool)}
}

// Observe records one request.
func (h *Heuristic) Observe(e logfmt.Entry) {
	if strings.HasSuffix(strings.ToLower(e.PathOnly()), "/robots.txt") || strings.ToLower(e.PathOnly()) == "robots.txt" {
		h.mu.Lock()
		h.fetchedRobots[session.Key{IP: e.ClientIP, UserAgent: e.UserAgent}] = true
		h.mu.Unlock()
	}
}

// IsRobot classifies the session.
func (h *Heuristic) IsRobot(key session.Key) bool {
	if AgentLooksLikeRobot(key.UserAgent) {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fetchedRobots[key]
}
