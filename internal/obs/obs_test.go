package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_events_total", "events", nil)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("repro_test_events_total", "events", nil); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("repro_test_depth", "depth", Labels{"shard": "3"})
	g.Set(7.5)
	if g.Value() != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", g.Value())
	}
	r.GaugeFunc("repro_test_live", "live", nil, func() float64 { return 42 })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d instruments, want 3", len(snap))
	}
}

// Callers registering one new counter at once, beside scrapes, get the
// same counter and lose no increment, and no scrape sees it unset.
func TestCounterRegisteredConcurrently(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.Counter("repro_test_races_total", "races", Labels{"node": "a"}).Inc()
		}()
		go func() {
			defer wg.Done()
			r.Snapshot()
		}()
	}
	wg.Wait()
	if v := r.Counter("repro_test_races_total", "races", Labels{"node": "a"}).Value(); v != 8 {
		t.Fatalf("counter = %d, want 8", v)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"http_requests_total", "repro_Bad", "repro_a-b", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q was accepted", name)
				}
			}()
			r.Counter(name, "", nil)
		}()
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("repro_test_latency_seconds", "lat", []float64{0.01, 0.1, 1}, nil)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{1, 2, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-5.605) > 1e-9 {
		t.Fatalf("sum = %v, want 5.605", s.Sum)
	}
	if q := s.Quantile(0.5); q <= 0.01 || q > 0.1 {
		t.Fatalf("p50 = %v, want in (0.01, 0.1]", q)
	}
	if q := s.Quantile(1); q != 1 {
		t.Fatalf("p100 = %v, want clamp to last bound 1", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(ExpBuckets(0.001, 2, 10))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	if math.Abs(s.Sum-80) > 1e-6 {
		t.Fatalf("sum = %v, want 80", s.Sum)
	}
}

// TestPrometheusRoundTrip is the exposition round-trip: what the
// registry writes must parse back to the same families and values.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_test_events_total", "events seen", Labels{"kind": "a"}).Add(3)
	r.Counter("repro_test_events_total", "events seen", Labels{"kind": `quo"te`}).Add(1)
	r.Gauge("repro_test_depth", "queue depth", Labels{"shard": "0"}).Set(12)
	h := r.Histogram("repro_test_latency_seconds", "latency", []float64{0.01, 0.1}, nil)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2)

	var b strings.Builder
	r.WritePrometheus(&b, Labels{"service": "test"})
	fams, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, b.String())
	}
	ev := fams["repro_test_events_total"]
	if ev == nil || ev.Type != "counter" || len(ev.Samples) != 2 {
		t.Fatalf("events family = %+v", ev)
	}
	for _, s := range ev.Samples {
		if s.Labels["service"] != "test" {
			t.Fatalf("sample missing service label: %v", s.Labels)
		}
		if s.Labels["kind"] == `quo"te` && s.Value != 1 {
			t.Fatalf("escaped-label sample = %v, want 1", s.Value)
		}
	}
	if g := fams["repro_test_depth"]; g == nil || g.Type != "gauge" || g.Samples[0].Value != 12 {
		t.Fatalf("depth family = %+v", g)
	}
	hist := fams["repro_test_latency_seconds"]
	if hist == nil {
		t.Fatal("latency family missing")
	}
	if err := hist.ValidateHistogram(); err != nil {
		t.Fatalf("histogram invalid: %v", err)
	}
	if len(hist.Buckets) != 3 { // 0.01, 0.1, +Inf
		t.Fatalf("bucket series = %d, want 3", len(hist.Buckets))
	}
	if hist.Counts[0].Value != 3 {
		t.Fatalf("_count = %v, want 3", hist.Counts[0].Value)
	}
	if math.Abs(hist.Sums[0].Value-2.055) > 1e-9 {
		t.Fatalf("_sum = %v, want 2.055", hist.Sums[0].Value)
	}
}

func TestTraceparent(t *testing.T) {
	id, span := NewTraceID(), NewSpanID()
	if len(id) != 32 || len(span) != 16 {
		t.Fatalf("id lengths: %q %q", id, span)
	}
	tid, sid, ok := ParseTraceparent(FormatTraceparent(id, span))
	if !ok || tid != id || sid != span {
		t.Fatalf("round-trip failed: %v %q %q", ok, tid, sid)
	}
	for _, bad := range []string{
		"", "00-zz-aa-01", "00-" + strings.Repeat("0", 32) + "-" + span + "-01",
		"ff-" + id + "-" + span + "-01", "00-" + id + "-" + span, "00-" + id[:31] + "-" + span + "-01",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("accepted malformed traceparent %q", bad)
		}
	}
}

func TestStagesAccumulateAndCtx(t *testing.T) {
	var st *Stages
	st.Observe("noop", time.Second) // nil-safe
	if st.Snapshot() != nil {
		t.Fatal("nil Stages snapshot not nil")
	}
	st = &Stages{}
	st.Observe("wal-append", 2*time.Millisecond)
	st.Observe("store-apply", time.Millisecond)
	st.Observe("wal-append", 3*time.Millisecond)
	snap := st.Snapshot()
	if len(snap) != 2 || snap[0].Name != "wal-append" || snap[0].DurationMS != 5 {
		t.Fatalf("stages = %+v", snap)
	}
	ctx := WithStages(WithTraceID(context.Background(), "abc"), st)
	if TraceIDFrom(ctx) != "abc" || StagesFrom(ctx) != st {
		t.Fatal("context round-trip failed")
	}
	if TraceIDFrom(context.Background()) != "" || StagesFrom(context.Background()) != nil {
		t.Fatal("empty context not empty")
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		id := "trace-a"
		if i >= 3 {
			id = "trace-b"
		}
		tr.Record(SpanRecord{TraceID: id, Route: "/x", DurationMS: float64(i * 4)})
	}
	// Ring holds the last 4: trace-a (i=2), trace-b (i=3..5).
	if got := tr.Get("trace-a"); len(got) != 1 || got[0].DurationMS != 8 {
		t.Fatalf("trace-a spans = %+v", got)
	}
	if got := tr.Get("trace-b"); len(got) != 3 || got[0].DurationMS != 12 {
		t.Fatalf("trace-b spans = %+v", got)
	}
}
