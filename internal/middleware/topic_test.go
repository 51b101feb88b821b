package middleware

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestValidatePattern(t *testing.T) {
	good := []string{"a", "a/b/c", "+", "#", "a/+/c", "a/b/#", "+/+/#"}
	for _, p := range good {
		if err := ValidatePattern(p); err != nil {
			t.Errorf("ValidatePattern(%q) = %v, want nil", p, err)
		}
	}
	bad := []string{"", "/", "a//b", "a/", "/a", "a/#/b", "#/a"}
	for _, p := range bad {
		if err := ValidatePattern(p); err == nil {
			t.Errorf("ValidatePattern(%q) accepted", p)
		}
	}
}

func TestValidateTopic(t *testing.T) {
	if err := ValidateTopic("district/turin/building/b01"); err != nil {
		t.Errorf("concrete topic rejected: %v", err)
	}
	for _, bad := range []string{"", "a//b", "a/+", "a/#", "+"} {
		if err := ValidateTopic(bad); err == nil {
			t.Errorf("ValidateTopic(%q) accepted", bad)
		}
	}
}

func TestMatch(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b", false},
		{"a/b", "a/b/c", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"+/+/+", "a/b/c", true},
		{"+", "a", true},
		{"+", "a/b", false},
		{"#", "a", true},
		{"#", "a/b/c/d", true},
		{"a/#", "a", true}, // '#' matches the empty suffix too (MQTT semantics)
		{"a/#", "a/b", true},
		{"a/#", "a/b/c", true},
		{"a/b/#", "a/b/c/d/e", true},
		{"a/b/#", "a/c", false},
		{"district/+/building/+/device/+/temperature", "district/turin/building/b01/device/t1/temperature", true},
	}
	for _, tc := range cases {
		if got := Match(tc.pattern, tc.topic); got != tc.want {
			t.Errorf("Match(%q, %q) = %v, want %v", tc.pattern, tc.topic, got, tc.want)
		}
	}
}

// randomTopic builds a concrete topic with depth in [1,5] from a tiny
// alphabet so collisions with patterns are frequent.
func randomTopic(rng *rand.Rand) string {
	depth := rng.Intn(5) + 1
	segs := make([]string, depth)
	for i := range segs {
		segs[i] = string(rune('a' + rng.Intn(4)))
	}
	return strings.Join(segs, "/")
}

// randomPattern derives a pattern by mutating topic segments to wildcards.
func randomPattern(rng *rand.Rand) string {
	topic := randomTopic(rng)
	segs := strings.Split(topic, "/")
	for i := range segs {
		switch rng.Intn(4) {
		case 0:
			segs[i] = WildcardOne
		case 1:
			if i == len(segs)-1 {
				segs[i] = WildcardRest
			}
		}
	}
	return strings.Join(segs, "/")
}

// Property: the index agrees with the reference Match predicate on
// random pattern sets and topics.
func TestTrieMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trie := NewIndex()
		patterns := make(map[int]string)
		for i := 0; i < 32; i++ {
			p := randomPattern(rng)
			patterns[i] = p
			trie.Add(p, i)
		}
		for trial := 0; trial < 16; trial++ {
			topic := randomTopic(rng)
			got := make(map[int]bool)
			trie.Match(topic, func(id int) { got[id] = true })
			for id, p := range patterns {
				if Match(p, topic) != got[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTrieAddRemove(t *testing.T) {
	trie := NewIndex()
	trie.Add("a/+/c", 1)
	trie.Add("a/#", 2)
	trie.Add("a/b/c", 3)
	ids := func(topic string) map[int]bool {
		got := map[int]bool{}
		trie.Match(topic, func(id int) { got[id] = true })
		return got
	}
	if got := ids("a/b/c"); len(got) != 3 || !got[1] || !got[2] || !got[3] {
		t.Fatalf("match a/b/c = %v", got)
	}
	trie.Remove("a/#", 2)
	trie.Remove("a/#", 2) // idempotent
	if got := ids("a/b/c"); len(got) != 2 || got[2] {
		t.Fatalf("match a/b/c after remove = %v, want ids 1 and 3", got)
	}
	trie.Remove("never/added", 9) // no-op on unknown branch
	trie.Remove("a/b/c", 9)       // no-op on an id never registered there
	if got := ids("a/b/c"); len(got) != 2 {
		t.Fatalf("no-op removes changed the match: %v", got)
	}
}

// The linear matcher is the test's own scan with Match over every
// registered pattern — the predicate the hub's ring replay runs in
// production — and the index must visit exactly the ids it selects.
func TestLinearMatcherAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	linear := map[int]string{}
	trie := NewIndex()
	for i := 0; i < 64; i++ {
		p := randomPattern(rng)
		linear[i] = p
		trie.Add(p, i)
	}
	for trial := 0; trial < 200; trial++ {
		topic := randomTopic(rng)
		want, got := map[int]bool{}, map[int]bool{}
		for id, p := range linear {
			if Match(p, topic) {
				want[id] = true
			}
		}
		trie.Match(topic, func(id int) {
			if got[id] {
				t.Fatalf("trie visited id %d twice on %q", id, topic)
			}
			got[id] = true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("matchers disagree on %q: linear %v trie %v", topic, want, got)
		}
	}
}
