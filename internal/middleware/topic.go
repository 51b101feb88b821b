// Package middleware implements the event-driven publish/subscribe
// middleware the infrastructure is built on — the role the SEEMPubS
// middleware plays in the paper. Device-proxies publish measurements into
// it and end-user applications subscribe to live district events.
//
// Topics are hierarchical, slash-separated paths mirroring the ontology
// ("district/turin/building/b01/device/t-12/temperature"). Subscriptions
// may use `+` to match exactly one segment and `#` to match any suffix.
// The package is the in-process Bus each service embeds; internal/stream
// carries its events between hosts over the versioned HTTP API.
package middleware

import (
	"errors"
	"strings"
	"sync"
)

// Wildcards accepted in subscription patterns.
const (
	WildcardOne  = "+" // matches exactly one topic segment
	WildcardRest = "#" // matches any (possibly empty) topic suffix
)

// ErrBadPattern reports a malformed subscription pattern.
var ErrBadPattern = errors.New("middleware: malformed pattern")

// ValidatePattern checks that a subscription pattern is well formed:
// non-empty, no empty segments, and `#` only as the final segment.
func ValidatePattern(pattern string) error {
	if pattern == "" {
		return ErrBadPattern
	}
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		switch {
		case s == "":
			return ErrBadPattern
		case s == WildcardRest && i != len(segs)-1:
			return ErrBadPattern
		}
	}
	return nil
}

// ValidateTopic checks that a concrete topic is well formed: non-empty,
// no empty segments, and no wildcard characters.
func ValidateTopic(topic string) error {
	if topic == "" {
		return ErrBadPattern
	}
	// Segment by segment without strings.Split: this runs per published
	// event on the stream hub and must not allocate.
	for rest, more := topic, true; more; {
		var s string
		s, rest, more = strings.Cut(rest, "/")
		if s == "" || s == WildcardOne || s == WildcardRest {
			return ErrBadPattern
		}
	}
	return nil
}

// Match reports whether a concrete topic matches a subscription pattern.
func Match(pattern, topic string) bool {
	p := strings.Split(pattern, "/")
	t := strings.Split(topic, "/")
	return matchSegs(p, t)
}

func matchSegs(p, t []string) bool {
	for {
		switch {
		case len(p) == 0:
			return len(t) == 0
		case p[0] == WildcardRest:
			return true
		case len(t) == 0:
			return false
		case p[0] == WildcardOne || p[0] == t[0]:
			p, t = p[1:], t[1:]
		default:
			return false
		}
	}
}

// matcher is the subscription index. The trie implementation makes match
// cost proportional to topic depth rather than subscription count; the
// linear variant exists for the ablation benchmark (DESIGN.md §5).
type matcher interface {
	add(pattern string, id int)
	remove(pattern string, id int)
	match(topic string, visit func(id int))
	len() int
}

// trieMatcher indexes patterns in a segment trie.
type trieMatcher struct {
	root *trieNode
	n    int
}

type trieNode struct {
	children map[string]*trieNode
	ids      map[int]struct{} // subscriptions terminating here
	restIDs  map[int]struct{} // subscriptions with trailing '#'
}

func newTrieMatcher() *trieMatcher { return &trieMatcher{root: newTrieNode()} }

func newTrieNode() *trieNode {
	return &trieNode{children: make(map[string]*trieNode)}
}

func (m *trieMatcher) len() int { return m.n }

func (m *trieMatcher) add(pattern string, id int) {
	node := m.root
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		if s == WildcardRest {
			if node.restIDs == nil {
				node.restIDs = make(map[int]struct{})
			}
			node.restIDs[id] = struct{}{}
			m.n++
			return
		}
		child, ok := node.children[s]
		if !ok {
			child = newTrieNode()
			node.children[s] = child
		}
		node = child
		if i == len(segs)-1 {
			if node.ids == nil {
				node.ids = make(map[int]struct{})
			}
			node.ids[id] = struct{}{}
			m.n++
		}
	}
}

func (m *trieMatcher) remove(pattern string, id int) {
	node := m.root
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		if s == WildcardRest {
			if _, ok := node.restIDs[id]; ok {
				delete(node.restIDs, id)
				m.n--
			}
			return
		}
		child, ok := node.children[s]
		if !ok {
			return
		}
		node = child
		if i == len(segs)-1 {
			if _, ok := node.ids[id]; ok {
				delete(node.ids, id)
				m.n--
			}
		}
	}
	// Branch garbage is left in place; subscription churn in this system
	// is dominated by proxies joining, and empty branches are tiny.
}

func (m *trieMatcher) match(topic string, visit func(id int)) {
	matchTrie(m.root, topic, true, visit)
}

// matchTrie descends one topic segment per level, cutting segments off
// rest in place (no strings.Split: a match allocates nothing). more is
// false once the last segment has been consumed.
func matchTrie(node *trieNode, rest string, more bool, visit func(id int)) {
	for id := range node.restIDs {
		visit(id)
	}
	if !more {
		for id := range node.ids {
			visit(id)
		}
		return
	}
	seg, rest, more := strings.Cut(rest, "/")
	if child, ok := node.children[seg]; ok {
		matchTrie(child, rest, more, visit)
	}
	if child, ok := node.children[WildcardOne]; ok {
		matchTrie(child, rest, more, visit)
	}
}

// linearMatcher scans every pattern on match. Kept for the E2 ablation.
type linearMatcher struct {
	subs map[int]string
}

func newLinearMatcher() *linearMatcher { return &linearMatcher{subs: make(map[int]string)} }

func (m *linearMatcher) len() int { return len(m.subs) }

func (m *linearMatcher) add(pattern string, id int) { m.subs[id] = pattern }

func (m *linearMatcher) remove(pattern string, id int) {
	if m.subs[id] == pattern {
		delete(m.subs, id)
	}
}

func (m *linearMatcher) match(topic string, visit func(id int)) {
	for id, p := range m.subs {
		if Match(p, topic) {
			visit(id)
		}
	}
}

// Index is an exported, concurrency-safe subscription index backed by
// the production trie matcher. Other subsystems that need to resolve a
// concrete topic to a set of integer subscriber IDs (the stream fan-out
// hub) reuse this instead of re-implementing pattern matching; match
// cost stays proportional to topic depth, not subscriber count.
type Index struct {
	lm lockedMatcher
}

// NewIndex creates an empty trie-backed pattern index.
func NewIndex() *Index {
	return &Index{lm: lockedMatcher{m: newTrieMatcher()}}
}

// Add registers id under pattern (the pattern must be pre-validated).
func (ix *Index) Add(pattern string, id int) { ix.lm.add(pattern, id) }

// Remove drops id's registration under pattern.
func (ix *Index) Remove(pattern string, id int) { ix.lm.remove(pattern, id) }

// Match visits the id of every pattern matching the concrete topic.
func (ix *Index) Match(topic string, visit func(id int)) { ix.lm.match(topic, visit) }

// Len returns the number of registered patterns.
func (ix *Index) Len() int { return ix.lm.len() }

// guard wraps a matcher with a lock so Bus and Node can share it.
type lockedMatcher struct {
	mu sync.RWMutex
	m  matcher
}

func (l *lockedMatcher) add(pattern string, id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.add(pattern, id)
}

func (l *lockedMatcher) remove(pattern string, id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.remove(pattern, id)
}

func (l *lockedMatcher) match(topic string, visit func(id int)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.m.match(topic, visit)
}

func (l *lockedMatcher) len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.m.len()
}
