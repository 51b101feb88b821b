// Package middleware is the vocabulary of the event-driven
// publish/subscribe middleware the infrastructure is built on — the role
// the SEEMPubS middleware plays in the paper: the Event type, the topic
// and pattern grammar, and the subscription Index. Device-proxies publish
// measurements and end-user applications subscribe to live district
// events; the one publish/subscribe implementation is internal/stream's
// Hub, which owns every lock, queue and goroutine — this package has none.
//
// Topics are hierarchical, slash-separated paths mirroring the ontology
// ("district/turin/building/b01/device/t-12/temperature"). Subscriptions
// may use `+` to match exactly one segment and `#` to match any suffix.
package middleware

import (
	"errors"
	"strings"
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

// Index is the subscription index: patterns in a segment trie, so
// resolving a concrete topic to the integer IDs subscribed to it costs in
// proportion to topic depth, not subscription count. It has no lock of
// its own; the caller (stream.Hub, under its fan-out lock) serializes
// every call.
type Index struct {
	root *trieNode
}

type trieNode struct {
	children map[string]*trieNode
	ids      map[int]struct{} // subscriptions terminating here
	restIDs  map[int]struct{} // subscriptions with trailing '#'
}

// NewIndex creates an empty pattern index.
func NewIndex() *Index { return &Index{root: newTrieNode()} }

func newTrieNode() *trieNode {
	return &trieNode{children: make(map[string]*trieNode)}
}

// Add registers id under pattern (the pattern must be pre-validated).
func (ix *Index) Add(pattern string, id int) {
	node := ix.root
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		if s == WildcardRest {
			if node.restIDs == nil {
				node.restIDs = make(map[int]struct{})
			}
			node.restIDs[id] = struct{}{}
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
		}
	}
}

// Remove drops id's registration under pattern.
func (ix *Index) Remove(pattern string, id int) {
	node := ix.root
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		if s == WildcardRest {
			delete(node.restIDs, id)
			return
		}
		child, ok := node.children[s]
		if !ok {
			return
		}
		node = child
		if i == len(segs)-1 {
			delete(node.ids, id)
		}
	}
	// Branch garbage is left in place; subscription churn in this system
	// is dominated by proxies joining, and empty branches are tiny.
}

// Match visits the id of every pattern matching the concrete topic.
func (ix *Index) Match(topic string, visit func(id int)) {
	matchTrie(ix.root, topic, true, visit)
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
