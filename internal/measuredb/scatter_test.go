package measuredb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// bruteResolve is the reference resolver: every live series of the
// universe that the selector's globs match, sorted.
func bruteResolve(universe []tsdb.SeriesKey, live func(tsdb.SeriesKey) bool, sel SeriesSelector) []tsdb.SeriesKey {
	var out []tsdb.SeriesKey
	for _, k := range universe {
		if live(k) && (sel.Device == "" || globMatch(sel.Device, k.Device)) &&
			(sel.Quantity == "" || globMatch(sel.Quantity, k.Quantity)) {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, tsdb.CompareKeys)
	return out
}

// firstDifference names the first position where two key lists
// differ.
func firstDifference(got, want []tsdb.SeriesKey) string {
	for i := 0; ; i++ {
		switch {
		case i == len(got) && i == len(want):
			return "none"
		case i == len(got):
			return fmt.Sprintf("at %d: missing %v", i, want[i])
		case i == len(want) || got[i] != want[i]:
			return fmt.Sprintf("at %d: extra %v", i, got[i])
		}
	}
}

// randomSelector draws one selector over the universe's names: an exact
// device, an exact device and quantity, a prefix glob, a leading-'*'
// glob, a quantity glob, or one that matches nothing.
func randomSelector(rng *rand.Rand, universe []tsdb.SeriesKey) SeriesSelector {
	k := universe[rng.Intn(len(universe))]
	cut := rng.Intn(len(k.Device) + 1)
	switch rng.Intn(7) {
	case 0:
		return SeriesSelector{Device: k.Device}
	case 1:
		return SeriesSelector{Device: k.Device, Quantity: k.Quantity}
	case 2:
		return SeriesSelector{Device: k.Device[:cut] + "*"}
	case 3:
		return SeriesSelector{Device: k.Device[:cut] + "*" + k.Device[len(k.Device)-rng.Intn(4):], Quantity: k.Quantity[:rng.Intn(3)] + "*"}
	case 4:
		return SeriesSelector{Device: "*" + k.Device[cut:]}
	case 5:
		return SeriesSelector{Device: []string{"", "*"}[rng.Intn(2)], Quantity: "*" + k.Quantity[rng.Intn(len(k.Quantity)):]}
	default:
		return []SeriesSelector{{Device: "urn:nowhere*"}, {Device: k.Device + "x"}, {Device: k.Device, Quantity: "nothing"}}[rng.Intn(3)]
	}
}

// TestCatalogResolverEquivalence holds the catalog resolver to a
// brute-force glob filter of every live series, on a durable 8-shard
// engine whose series are head-only, block-only or both, across
// compaction, a shard reset and rollup retention. The
// live set is a model of those operations, and every series' Len must
// agree with it.
func TestCatalogResolverEquivalence(t *testing.T) {
	svc, err := Open(Options{DataDir: t.TempDir(), Shards: 8, Blocks: tsdb.BlockPolicy{
		HeadWindow:      time.Minute,
		RetentionRollup: 2 * time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	eng := svc.Store().(*tsdb.Sharded)
	rng := rand.New(rand.NewSource(51))
	now := time.Now().UTC().Truncate(time.Second)

	// Device names nest (d1 is a prefix of d10), and one carries a '*'
	// of its own, which a selector's glob matches as any other byte.
	var universe []tsdb.SeriesKey
	for b := 0; b < 4; b++ {
		for d := 0; d < 12; d++ {
			dev := fmt.Sprintf("urn:district:turin/building:b%02d/device:d%d", b, d)
			for _, q := range []string{"temperature", "humidity", "power"}[:1+(b+d)%3] {
				universe = append(universe, tsdb.SeriesKey{Device: dev, Quantity: q})
			}
		}
	}
	universe = append(universe, tsdb.SeriesKey{Device: "urn:district:turin/odd*name", Quantity: "temperature"})
	live := map[tsdb.SeriesKey]bool{}
	write := func(keys []tsdb.SeriesKey, at time.Time) {
		t.Helper()
		var rows []tsdb.Row
		for _, k := range keys {
			for i := 0; i < 3; i++ {
				rows = append(rows, tsdb.Row{Key: k, Sample: tsdb.Sample{At: at.Add(time.Duration(i) * time.Second), Value: float64(i)}})
			}
			live[k] = true
		}
		if errs := eng.AppendBatch(rows); errs != nil {
			t.Fatal(errs)
		}
	}
	check := func(stage string) {
		t.Helper()
		for _, k := range universe {
			if got := eng.Len(k) > 0; got != live[k] {
				t.Fatalf("%s: %v holds rows = %v, model says %v", stage, k, got, live[k])
			}
		}
		isLive := func(k tsdb.SeriesKey) bool { return live[k] }
		for i := 0; i < 300; i++ {
			sel := SeriesSelector{}
			if i > 0 {
				sel = randomSelector(rng, universe)
			}
			got, want := svc.resolveSelectorKeys(sel), bruteResolve(universe, isLive, sel)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: selector %+v resolved to %d series, want %d; first difference %v",
					stage, sel, len(got), len(want), firstDifference(got, want))
			}
		}
	}
	compact := func() {
		t.Helper()
		if err := eng.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	pick := func(stride, offset int) []tsdb.SeriesKey {
		var out []tsdb.SeriesKey
		for i := offset; i < len(universe); i += stride {
			out = append(out, universe[i])
		}
		return out
	}

	// Past the rollup horizon: cut into a block, deleted by the next pass.
	expiring, revived := pick(5, 0), pick(10, 0)
	write(expiring, now.Add(-3*time.Hour))
	check("head only")
	compact()
	check("expiring block")
	// Inside retention: block rows, head rows, and both.
	blockOnly, headOnly, both := pick(5, 1), pick(5, 2), pick(5, 3)
	write(append(blockOnly, both...), now.Add(-30*time.Minute))
	write(append(headOnly, both...), now.Add(-5*time.Second))
	write(revived, now.Add(-5*time.Second))
	check("head, blocks and both")
	compact()
	for _, k := range expiring {
		live[k] = slices.Contains(revived, k)
	}
	check("rollup retention")
	reset := eng.ShardFor(both[2].Device)
	if err := eng.ResetShard(reset); err != nil {
		t.Fatal(err)
	}
	for k := range live {
		if eng.ShardFor(k.Device) == reset {
			live[k] = false
		}
	}
	check("reset shard")
	write(pick(3, 2), now.Add(-2*time.Second))
	compact()
	check("rewritten after reset")
}

// TestCatalogReadYourWrites is read-your-writes for the catalog: a glob
// issued after an append's ack lists the series the append created,
// while other writers create series, a reader resolves globs in a loop
// and compaction cycles publish new block views.
func TestCatalogReadYourWrites(t *testing.T) {
	svc, err := Open(Options{DataDir: t.TempDir(), Shards: 8, Blocks: tsdb.BlockPolicy{HeadWindow: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	eng := svc.Store().(*tsdb.Sharded)
	const writers, perWriter = 4, 150
	old := time.Now().Add(-time.Hour) // every compaction cuts the rows written so far
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // a reader resolving the whole district: it only ever grows
		defer bg.Done()
		seen := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			keys := svc.resolveSelectorKeys(SeriesSelector{Device: "urn:rw/*"})
			if len(keys) < seen || !slices.IsSortedFunc(keys, tsdb.CompareKeys) {
				t.Errorf("glob listed %d series after %d, sorted %v", len(keys), seen, slices.IsSortedFunc(keys, tsdb.CompareKeys))
				return
			}
			seen = len(keys)
		}
	}()
	go func() { // compaction cycles swapping block views under the readers
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := eng.CompactAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := tsdb.SeriesKey{Device: fmt.Sprintf("urn:rw/w%d/device:d%d", w, i), Quantity: "power"}
				if err := eng.Append(key, tsdb.Sample{At: old.Add(time.Duration(i) * time.Second), Value: 1}); err != nil {
					t.Error(err)
					return
				}
				glob := SeriesSelector{Device: "urn:rw/w" + fmt.Sprint(w) + "/*"}
				if i%2 == 1 {
					glob = SeriesSelector{Device: "*" + strings.TrimPrefix(key.Device, "urn:rw"), Quantity: "pow*"}
				}
				keys := svc.resolveSelectorKeys(glob)
				if _, found := slices.BinarySearchFunc(keys, key, tsdb.CompareKeys); !found {
					t.Errorf("glob %+v after the ack of %v does not list it (%d series)", glob, key, len(keys))
					return
				}
				if w == 0 && i%10 == 0 {
					if got := svc.resolveSelectorKeys(SeriesSelector{Device: key.Device}); !slices.Equal(got, []tsdb.SeriesKey{key}) {
						t.Errorf("exact device %s = %v", key.Device, got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if got := len(svc.resolveSelectorKeys(SeriesSelector{Device: "urn:rw/*"})); got != writers*perWriter {
		t.Fatalf("district lists %d series, want %d", got, writers*perWriter)
	}
	if st := eng.Stats(); st.Series != writers*perWriter {
		t.Fatalf("stats = %+v, want %d series", st, writers*perWriter)
	}
}
