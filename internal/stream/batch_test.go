package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/wal"
)

// batchOf builds n events on topic, payloads "<tag>:<i>".
func batchOf(topic, tag string, n int) []middleware.Event {
	evs := make([]middleware.Event, n)
	for i := range evs {
		evs[i] = event(topic, fmt.Sprintf("%s:%d", tag, i))
	}
	return evs
}

func mustPublishBatch(t *testing.T, h *Hub, evs []middleware.Event) {
	t.Helper()
	if n, err := h.PublishBatch(evs); err != nil || n != len(evs) {
		t.Fatalf("PublishBatch = %d, %v; want %d, nil", n, err, len(evs))
	}
}

// TestHubBatchIDsContiguousUnderConcurrentPublishers: batches from
// concurrent publishers never interleave — every queue item is one
// whole batch — and the IDs across all of them have no gap.
func TestHubBatchIDsContiguousUnderConcurrentPublishers(t *testing.T) {
	const publishers, batches = 4, 50
	h := NewHub(HubOptions{FirstID: 1, QueueLen: 1 << 16, History: 16})
	defer h.Close()
	sub, _, err := h.Subscribe("#", 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	total := 0
	for p := 0; p < publishers; p++ {
		for b := 0; b < batches; b++ {
			total += 1 + (p+b)%7
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := h.PublishBatch(batchOf("x/y", fmt.Sprintf("p%d.b%d", p, b), 1+(p+b)%7)); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()
	next := uint64(1)
	for seen := 0; seen < total; {
		var item []Entry
		select {
		case item = <-sub.C:
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout after %d/%d events", seen, total)
		}
		tag, _, _ := strings.Cut(string(item[0].Event.Payload), ":")
		for i, e := range item {
			if e.ID != next {
				t.Fatalf("ID %d where %d was due", e.ID, next)
			}
			if want := fmt.Sprintf("%s:%d", tag, i); string(e.Event.Payload) != want {
				t.Fatalf("item of batch %s holds %q at %d: batches interleaved", tag, e.Event.Payload, i)
			}
			next++
		}
		seen += len(item)
	}
	if st := h.Stats(); st.Published != uint64(total) || st.Delivered != uint64(total) || h.LastID() != uint64(total) {
		t.Fatalf("stats = %+v, lastID %d, want %d events", st, h.LastID(), total)
	}
}

// TestHubDurableConcurrentPublishersReloadUnderTheirIDs: publishers
// racing on a durable hub under FsyncAlways share the ring log's
// writes, and every event reloads under the ID it was delivered with.
func TestHubDurableConcurrentPublishersReloadUnderTheirIDs(t *testing.T) {
	const publishers, batches = 4, 25
	dir := t.TempDir()
	opts := HubOptions{Dir: dir, FirstID: 100, History: 1024, Fsync: wal.FsyncAlways}
	h, err := OpenHub(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	total := 0
	for p := 0; p < publishers; p++ {
		for b := 0; b < batches; b++ {
			total += 1 + (p+b)%3
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := h.PublishBatch(batchOf("x/y", fmt.Sprintf("p%d.b%d", p, b), 1+(p+b)%3)); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()
	sub, live, err := h.Subscribe("#", 99)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenHub(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	sub2, reloaded, err := h2.Subscribe("#", 99)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if len(live) != total || len(reloaded) != len(live) || h2.LastID() != h.LastID() {
		t.Fatalf("%d entries reloaded (last ID %d), %d live (last ID %d)", len(reloaded), h2.LastID(), len(live), h.LastID())
	}
	for i := range live {
		if reloaded[i].ID != live[i].ID || string(reloaded[i].Event.Payload) != string(live[i].Event.Payload) {
			t.Fatalf("entry %d reloaded as ID %d %q, was ID %d %q", i,
				reloaded[i].ID, reloaded[i].Event.Payload, live[i].ID, live[i].Event.Payload)
		}
	}
}

// TestHubResumeInsideBatch: a Last-Event-ID in the middle of a batch
// replays the batch's remainder, and what follows arrives live, once.
func TestHubResumeInsideBatch(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1})
	defer h.Close()
	mustPublishBatch(t, h, batchOf("a/b", "one", 10)) // IDs 1..10
	sub, replay, err := h.Subscribe("#", 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Gap || len(replay) != 6 {
		t.Fatalf("replay = %d entries, gap %v; want 6, false", len(replay), sub.Gap)
	}
	mustPublishBatch(t, h, batchOf("a/b", "two", 3)) // IDs 11..13
	got := append(replay, collect(t, sub.C, 3)...)
	for i, e := range got {
		if e.ID != uint64(5+i) {
			t.Fatalf("entry %d has ID %d, want %d", i, e.ID, 5+i)
		}
	}
	if want := "one:4"; string(got[0].Event.Payload) != want {
		t.Fatalf("first replayed payload = %q, want %q", got[0].Event.Payload, want)
	}
	select {
	case extra := <-sub.C:
		t.Fatalf("delivered twice: %+v", extra)
	default:
	}
}

// TestHubBatchAdmittedWholeAndSlowConsumerStillEvicted: a batch four
// times QueueLen goes to a subscriber that has drained its queue, again
// and again; one that never drains takes the first and is evicted by the
// second — and its resume from the ring is gapless.
func TestHubBatchAdmittedWholeAndSlowConsumerStillEvicted(t *testing.T) {
	const queueLen = 8
	h := NewHub(HubOptions{FirstID: 1, QueueLen: queueLen, History: 256})
	defer h.Close()
	fast, _, err := h.Subscribe("#", 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := h.Subscribe("#", 0) // never drained
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for round := 0; round < 3; round++ {
		mustPublishBatch(t, h, batchOf("x/y", fmt.Sprint(round), 4*queueLen))
		if d := h.QueueDepth(); round == 0 && d != 2*4*queueLen {
			t.Fatalf("queue depth = %d events, want %d", d, 2*4*queueLen)
		}
		// Receiving the item is what empties the fast queue: the next
		// round finds it drained.
		got += len(collect(t, fast.C, 4*queueLen))
	}
	if fast.Evicted() || got != 3*4*queueLen {
		t.Fatalf("drained subscriber: evicted %v after %d events", fast.Evicted(), got)
	}
	if !slow.Evicted() {
		t.Fatal("subscriber that never drains was not evicted")
	}
	if st := h.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", st.Evicted)
	}
	// The evicted consumer drains what it had buffered and resumes after
	// the last ID it saw, exactly as its SSE client would.
	var last uint64
	for item := range slow.C {
		last = item[len(item)-1].ID
	}
	if last != 4*queueLen {
		t.Fatalf("slow consumer buffered up to ID %d, want %d", last, 4*queueLen)
	}
	resumed, replay, err := h.Subscribe("#", last)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Gap || len(replay) != 2*4*queueLen || replay[0].ID != last+1 {
		t.Fatalf("resume: gap %v, %d entries from %d", resumed.Gap, len(replay), replay[0].ID)
	}
}

// TestHubBatchPatternSubsets: each subscriber's queue item is its
// pattern's subset of the batch, in order, under the batch's IDs.
func TestHubBatchPatternSubsets(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1})
	defer h.Close()
	all, _, _ := h.Subscribe("#", 0)
	temp, _, _ := h.Subscribe("m/+/temperature", 0)
	none, _, _ := h.Subscribe("registry/#", 0)
	topics := []string{"m/d1/temperature", "m/d1/humidity", "m/d2/temperature", "other/x", "m/d3/temperature"}
	evs := make([]middleware.Event, len(topics))
	for i, topic := range topics {
		evs[i] = event(topic, fmt.Sprint(i))
	}
	mustPublishBatch(t, h, evs)

	whole := <-all.C
	if len(whole) != len(topics) {
		t.Fatalf("# subscriber got %d of %d events in its item", len(whole), len(topics))
	}
	subset := <-temp.C
	var ids []uint64
	for _, e := range subset {
		if !strings.HasSuffix(e.Event.Topic, "/temperature") {
			t.Fatalf("pattern leak: %s", e.Event.Topic)
		}
		ids = append(ids, e.ID)
	}
	if fmt.Sprint(ids) != "[1 3 5]" {
		t.Fatalf("temperature subset IDs = %v, want [1 3 5]", ids)
	}
	select {
	case item := <-none.C:
		t.Fatalf("non-matching subscriber got %+v", item)
	default:
	}
	if st := h.Stats(); st.Published != 5 || st.Delivered != 8 {
		t.Fatalf("stats = %+v, want 5 published, 8 delivered", st)
	}
}

// TestHubDurableBatchKeepsIDEqualSeq: batches and single publishes mixed
// on a durable hub reload under the IDs they were published with.
func TestHubDurableBatchKeepsIDEqualSeq(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHub(HubOptions{Dir: dir, History: 64, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	mustPublishBatch(t, h, batchOf("m/a", "b1", 5))
	if err := h.Publish(event("m/a", "single:0")); err != nil {
		t.Fatal(err)
	}
	mustPublishBatch(t, h, batchOf("m/a", "b2", 3))
	sub, live, err := h.Subscribe("#", 99)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHub(HubOptions{Dir: dir, History: 64, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.LastID(); got != 108 {
		t.Fatalf("reloaded lastID = %d, want 108", got)
	}
	sub2, reloaded, err := h2.Subscribe("#", 99)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if len(reloaded) != 9 || len(live) != 9 {
		t.Fatalf("ring: %d live entries, %d reloaded, want 9 and 9", len(live), len(reloaded))
	}
	for i := range reloaded {
		if reloaded[i].ID != live[i].ID || string(reloaded[i].Event.Payload) != string(live[i].Event.Payload) {
			t.Fatalf("entry %d reloaded as ID %d %q, was ID %d %q", i,
				reloaded[i].ID, reloaded[i].Event.Payload, live[i].ID, live[i].Event.Payload)
		}
	}
	mustPublishBatch(t, h2, batchOf("m/a", "b3", 2))
	if got := collect(t, sub2.C, 2); got[0].ID != 109 || got[1].ID != 110 {
		t.Fatalf("post-restart IDs = %d, %d; want 109, 110", got[0].ID, got[1].ID)
	}
}

// TestHubDurableJournalFailureDetaches: when the ring log fails, fan-out
// stays live, PersistErrors counts the events the failed write carried,
// and a reopen resumes from the last journaled event — a cursor past it
// draws the gap marker.
func TestHubDurableJournalFailureDetaches(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHub(HubOptions{Dir: dir, History: 64, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := h.Subscribe("#", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPublishBatch(t, h, batchOf("m/a", "kept", 3)) // IDs 100..102, journaled
	// The log fails beneath the hub: closed, it refuses every later
	// write as a failed disk would.
	h.mu.Lock()
	log := h.log
	h.mu.Unlock()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	mustPublishBatch(t, h, batchOf("m/a", "lost", 2))           // 103, 104: the failed write
	if err := h.Publish(event("m/a", "detached")); err != nil { // 105: the log is gone
		t.Fatal(err)
	}
	got := collect(t, sub.C, 6)
	for i, e := range got {
		if e.ID != 100+uint64(i) {
			t.Fatalf("live entry %d has ID %d, want %d", i, e.ID, 100+i)
		}
	}
	if st := h.Stats(); st.PersistErrors != 2 || st.Published != 6 {
		t.Fatalf("stats after the failure: %+v; want 6 published, 2 persist errors", st)
	}
	sub.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHub(HubOptions{Dir: dir, History: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	resumed, replay, err := h2.Subscribe("#", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Gap || len(replay) != 2 || replay[0].ID != 101 || replay[1].ID != 102 {
		t.Fatalf("resume after 100: gap %v, replay %v; want 101, 102 gaplessly", resumed.Gap, replay)
	}
	tail, replay, err := h2.Subscribe("#", 102)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if tail.Gap || len(replay) != 0 {
		t.Fatalf("resume at the journal tail: gap %v, replay %v", tail.Gap, replay)
	}
	past, _, err := h2.Subscribe("#", 104)
	if err != nil {
		t.Fatal(err)
	}
	defer past.Close()
	if !past.Gap {
		t.Fatal("a cursor past the last journaled event resumed without the gap marker")
	}
}

// TestHubPublishBatchRefusesBadEvents: a refused event costs only
// itself — the rest of the batch is sequenced without a hole — and is
// counted where an operator can see it.
func TestHubPublishBatchRefusesBadEvents(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1})
	sub, _, _ := h.Subscribe("#", 0)
	evs := batchOf("a/b", "ok", 4)
	evs[1].Topic = "a/#"
	evs[3].At = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	n, err := h.PublishBatch(evs)
	if n != 2 || !errors.Is(err, middleware.ErrBadPattern) {
		t.Fatalf("PublishBatch = %d, %v; want 2 and a bad-pattern error", n, err)
	}
	got := collect(t, sub.C, 2)
	if got[0].ID != 1 || got[1].ID != 2 || string(got[1].Event.Payload) != "ok:2" {
		t.Fatalf("sequenced = %+v", got)
	}
	if err := h.Publish(event("", "x")); !errors.Is(err, middleware.ErrBadPattern) {
		t.Fatalf("Publish of an empty topic = %v", err)
	}
	h.Close()
	if _, err := h.PublishBatch(batchOf("a/b", "late", 2)); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("publish after close = %v", err)
	}
	if st := h.Stats(); st.Published != 2 || st.PublishErrors != 5 {
		t.Fatalf("stats = %+v, want 2 published, 5 publish errors", st)
	}

	reg := obs.NewRegistry()
	(&Service{hub: h}).RegisterMetrics(reg)
	var text strings.Builder
	reg.WritePrometheus(&text, nil)
	if !strings.Contains(text.String(), "repro_stream_publish_errors_total 5") {
		t.Fatalf("publish errors not exported:\n%s", text.String())
	}
}

// TestHubLiveResumeWindow: a hub is live while subscribed and for the
// resume window after its last subscriber left — never before the first.
func TestHubLiveResumeWindow(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1})
	defer h.Close()
	clock := time.Unix(1000, 0)
	h.now = func() time.Time { return clock }
	if h.Live() {
		t.Fatal("hub nobody ever subscribed to is live")
	}
	a, _, _ := h.Subscribe("#", 0)
	if _, _, err := h.Subscribe("x/#", 0); err != nil {
		t.Fatal(err)
	}
	a.Close()
	clock = clock.Add(time.Hour)
	if !h.Live() {
		t.Fatal("hub with a subscriber is not live")
	}
	h.KickAll() // the other one leaves now
	for _, step := range []struct {
		after time.Duration
		live  bool
	}{{0, true}, {resumeWindow - time.Millisecond, true}, {resumeWindow, false}, {time.Hour, false}} {
		h.now = func() time.Time { return clock.Add(step.after) }
		if h.Live() != step.live {
			t.Fatalf("%v after the last subscriber left: live = %v", step.after, !step.live)
		}
	}
	h.now = func() time.Time { return clock.Add(time.Hour) }
	if _, _, err := h.Subscribe("#", 0); err != nil || !h.Live() {
		t.Fatalf("resubscribed hub not live (err %v)", err)
	}
}

// TestHubEncodesOnlyForAReader: a memory-only hub nobody matches keeps
// its entries unencoded; a later replay renders the same frame bytes as
// an entry that was encoded at publish.
func TestHubEncodesOnlyForAReader(t *testing.T) {
	ev := goldenEvents()[3]
	h := NewHub(HubOptions{FirstID: 1})
	defer h.Close()
	other, _, _ := h.Subscribe("registry/#", 0) // subscribed, but not to this
	defer other.Close()
	if err := h.Publish(ev); err != nil {
		t.Fatal(err)
	}
	sub, replay, _ := h.Subscribe("#", 0)
	if len(replay) != 0 {
		t.Fatalf("fresh subscription replayed %d", len(replay))
	}
	if h.ring[0].wire != nil {
		t.Fatal("event nobody matched was encoded at publish")
	}
	if err := h.Publish(ev); err != nil {
		t.Fatal(err)
	}
	live := collect(t, sub.C, 1)[0]
	if live.wire == nil {
		t.Fatal("delivered entry carries no wire bytes")
	}
	lazy := h.ring[0]
	lazy.ID = live.ID
	if got, want := appendFrame(nil, &lazy), appendFrame(nil, &live); string(got) != string(want) {
		t.Fatalf("frame encoded on replay differs:\n got %q\nwant %q", got, want)
	}
}

// TestSSEBatchIsOneWave: a published batch reaches an SSE client whole
// and in order, and a client resuming from inside it gets the rest.
func TestSSEBatchIsOneWave(t *testing.T) {
	svc, ts := newStreamServer(t, Options{Hub: HubOptions{QueueLen: 4}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := Subscribe(ctx, ts.URL, "seq/#", SubscribeOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, svc, 1)
	mustPublishBatch(t, svc.Hub(), batchOf("seq/n", "w", 16)) // 4× QueueLen
	for i := 0; i < 16; i++ {
		select {
		case ev := <-sub.Events:
			if want := fmt.Sprintf("w:%d", i); string(ev.Payload) != want || EventID(ev) != uint64(i+1) {
				t.Fatalf("event %d = %q (ID %d), want %q", i, ev.Payload, EventID(ev), want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout after %d/16 events", i)
		}
	}
	if st := svc.Hub().Stats(); st.Evicted != 0 {
		t.Fatalf("batch larger than QueueLen evicted the subscriber: %+v", st)
	}
	mid, err := Subscribe(ctx, ts.URL, "seq/#", SubscribeOptions{AfterID: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	for i := 10; i < 16; i++ {
		select {
		case ev := <-mid.Events:
			if EventID(ev) != uint64(i+1) {
				t.Fatalf("resumed event has ID %d, want %d", EventID(ev), i+1)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("resume inside the batch timed out at ID %d", i+1)
		}
	}
}

// TestSubscriptionSkipsPoisonFrame: a data line the client cannot decode
// is skipped and counted, and the cursor moves past it — the reconnect
// asks for what follows, not for the same frame again. The server is
// hand-written SSE: it replays everything after Last-Event-ID, as a hub
// would, and ends the response while the client is behind.
func TestSubscriptionSkipsPoisonFrame(t *testing.T) {
	frames := []string{
		`{"topic":"p/a","payload":"MQ==","at":"2015-03-09T10:00:00Z"}`,
		`{"topic":"p/a","payload":{"not":"bytes"}`,
		`{"topic":"p/a","payload":"Mw==","at":"2015-03-09T10:00:02Z"}`,
		`{"topic":"p/a","payload":"NA==","at":"2015-03-09T10:00:03Z"}`,
	}
	var mu sync.Mutex
	var cursors []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := r.Header.Get("Last-Event-ID")
		mu.Lock()
		cursors = append(cursors, cur)
		mu.Unlock()
		after := 0
		fmt.Sscan(cur, &after)
		w.Header().Set("Content-Type", "text/event-stream")
		bw := bufio.NewWriter(w)
		upTo := 3 // the first connection ends after the third frame
		if after >= 3 {
			upTo = len(frames)
		}
		for id := after + 1; id <= upTo; id++ {
			fmt.Fprintf(bw, "id: %d\ndata: %s\n\n", id, frames[id-1])
		}
		bw.Flush()
		w.(http.Flusher).Flush()
		if upTo == len(frames) {
			<-r.Context().Done()
		}
	}))
	defer ts.Close()

	sub, err := Subscribe(context.Background(), ts.URL, "p/#", SubscribeOptions{BaseDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, want := range []string{"1", "3", "4"} {
		select {
		case ev, ok := <-sub.Events:
			if !ok || string(ev.Payload) != want {
				t.Fatalf("got %q (open %v, err %v), want %q", ev.Payload, ok, sub.Err(), want)
			}
		case <-time.After(5 * time.Second):
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("no progress past the poison frame; Last-Event-IDs seen: %q", cursors)
		}
	}
	if sub.BadFrames() != 1 || sub.LastID() != 4 {
		t.Fatalf("bad frames = %d, lastID = %d; want 1, 4", sub.BadFrames(), sub.LastID())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cursors) != 2 || cursors[0] != "" || cursors[1] != "3" {
		t.Fatalf("Last-Event-IDs = %q, want a fresh connection then a resume after 3", cursors)
	}
}
