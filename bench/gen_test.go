package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	anchor := time.Date(2026, 3, 9, 12, 0, 0, 0, time.UTC)
	series := makeSeries(2, 2, 2)
	build := func(seed int64) *history {
		return newHistory(seed, series, anchor, 2*time.Hour, time.Minute, time.Minute, time.Second)
	}
	a, b, c := build(7), build(7), build(8)
	if !reflect.DeepEqual(a.rows(0, len(series), 0, a.samples()), b.rows(0, len(series), 0, b.samples())) {
		t.Fatal("the same seed generated different corpora")
	}
	if reflect.DeepEqual(a.vals, c.vals) {
		t.Fatal("different seeds generated the same corpus")
	}
	// The op-mix draws too.
	r1, r2, r3 := newRNG(7, 1), newRNG(7, 1), newRNG(7, 2)
	same, differ := true, false
	for i := 0; i < 64; i++ {
		x := r1.next()
		same = same && x == r2.next()
		differ = differ || x != r3.next()
	}
	if !same || !differ {
		t.Errorf("rng: same seed and stream repeat=%v, another stream differs=%v; want true, true", same, differ)
	}
	// And the ingest batches of the write workloads.
	e := &env{anchor: anchor}
	w7, w7b, w8 := newIngestBulk(runConfig{seed: 7}), newIngestBulk(runConfig{seed: 7}), newIngestBulk(runConfig{seed: 8})
	if !reflect.DeepEqual(w7.batch(e, 1, 3, nil), w7b.batch(e, 1, 3, nil)) {
		t.Error("the same seed generated different ingest batches")
	}
	if reflect.DeepEqual(w7.batch(e, 1, 3, nil), w8.batch(e, 1, 3, nil)) {
		t.Error("different seeds generated the same ingest batch")
	}
}

func TestIngestBatchesKeepEverySeriesContiguous(t *testing.T) {
	e := &env{anchor: time.Date(2026, 3, 9, 12, 0, 0, 0, time.UTC)}
	b := newIngestBulk(runConfig{seed: 1, quick: true})
	next := map[string]time.Time{}
	for c := 0; c < ingestConns; c++ {
		for j := 0; j < 5; j++ {
			for _, p := range b.batch(e, c, j, nil) {
				key := p.Device + "|" + p.Quantity
				if want, seen := next[key]; seen && !p.At.Equal(want) {
					t.Fatalf("series %s jumped to %v, want %v", key, p.At, want)
				}
				next[key] = p.At.Add(time.Second)
			}
		}
	}
	if len(next) != len(b.series) {
		t.Errorf("batches touched %d series, want all %d", len(next), len(b.series))
	}
}

// The oracle's index arithmetic against a brute-force scan.
func TestHistoryOracle(t *testing.T) {
	anchor := time.Date(2026, 3, 9, 12, 0, 0, 0, time.UTC)
	h := newHistory(3, makeSeries(1, 1, 2), anchor, 3*time.Hour, time.Minute, 2*time.Minute, time.Second)
	if h.samples() != 180+120 || !h.at(h.samples()-1).Equal(anchor) {
		t.Fatalf("timeline: %d samples ending %v", h.samples(), h.at(h.samples()-1))
	}
	for k := 1; k < h.samples(); k++ {
		if !h.at(k).After(h.at(k - 1)) {
			t.Fatalf("timeline not increasing at %d", k)
		}
	}
	brute := func(s int, from, to time.Time) agg {
		var a agg
		for k := 0; k < h.samples(); k++ {
			if at := h.at(k); !at.Before(from) && !at.After(to) {
				a.add(at, h.vals[s][k])
			}
		}
		return a
	}
	cases := [][2]time.Time{
		{anchor.Add(-24 * time.Hour), anchor.Add(time.Hour)}, // everything
		{h.at(10), h.at(20)}, // both bounds on samples
		{h.at(10).Add(time.Second), h.at(20).Add(-time.Second)}, // both bounds between samples
		{h.at(170), h.at(200)}, // across the resolution change
		{h.at(179).Add(time.Nanosecond), h.at(180).Add(-time.Nanosecond)}, // the gap between the regions
		{anchor.Add(time.Second), anchor.Add(time.Minute)},                // after the end
		{h.at(0).Add(-time.Hour), h.at(0).Add(-time.Second)},              // before the start
		{h.at(299), h.at(299)}, // the last sample alone
	}
	for i, c := range cases {
		got, want := h.aggregate(1, c[0], c[1]), brute(1, c[0], c[1])
		if got.Count != want.Count || (want.Count > 0 && (got.Min != want.Min || got.Max != want.Max ||
			!sumClose(got.Sum, want.Sum) || !got.FirstAt.Equal(want.FirstAt) || !got.LastAt.Equal(want.LastAt))) {
			t.Errorf("case %d [%v, %v]: oracle %+v, brute force %+v", i, c[0], c[1], got, want)
		}
	}
}

func TestAggMerge(t *testing.T) {
	t0 := time.Unix(100, 0)
	var a, b agg
	a.add(t0, 3)
	a.add(t0.Add(time.Second), 1)
	b.add(t0.Add(2*time.Second), 7)
	a.merge(b)
	if a.Count != 3 || a.Min != 1 || a.Max != 7 || a.Sum != 11 || !a.LastAt.Equal(t0.Add(2*time.Second)) || !a.FirstAt.Equal(t0) {
		t.Errorf("merged %+v", a)
	}
	var empty agg
	empty.merge(a)
	if empty != a {
		t.Errorf("merge into empty = %+v, want %+v", empty, a)
	}
	if !sumClose(1e6+1e-4, 1e6) || sumClose(1e6+1, 1e6) || math.IsNaN(valueAt(1, 2, 3)) {
		t.Error("sumClose tolerance is not 1e-9 relative")
	}
}
