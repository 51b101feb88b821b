package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/middleware"
)

func event(topic, payload string) middleware.Event {
	return middleware.Event{Topic: topic, Payload: []byte(payload)}
}

// collect drains n entries (however batched) from a sub channel with a
// deadline.
func collect(t *testing.T, c <-chan []Entry, n int) []Entry {
	t.Helper()
	out := make([]Entry, 0, n)
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case e, ok := <-c:
			if !ok {
				t.Fatalf("channel closed after %d/%d entries", len(out), n)
			}
			out = append(out, e...)
		case <-deadline:
			t.Fatalf("timeout after %d/%d entries", len(out), n)
		}
	}
	return out
}

func TestHubFanoutFiltersByPattern(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1})
	defer h.Close()

	all, _, err := h.Subscribe("#", 0)
	if err != nil {
		t.Fatal(err)
	}
	temp, _, err := h.Subscribe("measurements/+/temperature", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Subscribe("bad//pattern", 0); err == nil {
		t.Fatal("malformed pattern accepted")
	}

	for i, topic := range []string{
		"measurements/d1/temperature",
		"measurements/d1/humidity",
		"registry/registered",
		"measurements/d2/temperature",
	} {
		if err := h.Publish(event(topic, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}

	got := collect(t, all.C, 4)
	for i := 1; i < len(got); i++ {
		if got[i].ID != got[i-1].ID+1 {
			t.Fatalf("IDs not monotonic: %d then %d", got[i-1].ID, got[i].ID)
		}
	}
	filtered := collect(t, temp.C, 2)
	for _, e := range filtered {
		if !strings.HasSuffix(e.Event.Topic, "/temperature") {
			t.Fatalf("pattern leak: %s", e.Event.Topic)
		}
	}
	st := h.Stats()
	if st.Published != 4 || st.Delivered != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// Ported from the Bus tests the hub took over from: a closed
// subscription gets nothing more (and closing twice is harmless), and a
// closed hub refuses publishers and subscribers alike, however often it
// is closed.
func TestHubSubCloseStopsDeliveryAndClosedHubRefuses(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1})
	gone, _, err := h.Subscribe("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	kept, _, err := h.Subscribe("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(event("x", "1")); err != nil {
		t.Fatal(err)
	}
	collect(t, gone.C, 1)
	gone.Close()
	gone.Close()
	if err := h.Publish(event("x", "2")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, kept.C, 2); string(got[1].Event.Payload) != "2" {
		t.Fatalf("surviving subscriber got %+v", got)
	}
	if batch, open := <-gone.C; open {
		t.Fatalf("delivery after Close: %+v", batch)
	}
	if st := h.Stats(); st.Subscribers != 1 || st.Delivered != 3 {
		t.Fatalf("stats after one Close = %+v, want 1 subscriber and 3 deliveries", st)
	}

	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, open := <-kept.C; open {
		t.Fatal("hub Close left a subscriber channel open")
	}
	if err := h.Publish(event("x", "3")); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("Publish after Close = %v, want ErrHubClosed", err)
	}
	if _, _, err := h.Subscribe("x", 0); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrHubClosed", err)
	}
}

func TestHubReplayResume(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1, History: 64})
	defer h.Close()
	for i := 1; i <= 10; i++ {
		if err := h.Publish(event("a/b", fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Resume after ID 6: replay must be exactly 7..10, no gap flagged.
	sub, replay, err := h.Subscribe("#", 6)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Gap {
		t.Fatal("gap reported though ring covers the resume point")
	}
	if len(replay) != 4 || replay[0].ID != 7 || replay[3].ID != 10 {
		t.Fatalf("replay = %+v", replay)
	}
	// Live events continue the sequence with no duplicates.
	if err := h.Publish(event("a/b", "11")); err != nil {
		t.Fatal(err)
	}
	live := collect(t, sub.C, 1)
	if live[0].ID != 11 {
		t.Fatalf("live ID = %d, want 11", live[0].ID)
	}
}

func TestHubReplayGapDetection(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1, History: 4})
	defer h.Close()
	for i := 1; i <= 10; i++ { // ring retains only 7..10
		if err := h.Publish(event("a/b", fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	sub, replay, err := h.Subscribe("#", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Gap {
		t.Fatal("expired resume point not flagged as gap")
	}
	if len(replay) != 4 || replay[0].ID != 7 {
		t.Fatalf("replay = %+v", replay)
	}
	// A current resume point stays gapless.
	fresh, _, err := h.Subscribe("#", 10)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Gap {
		t.Fatal("up-to-date subscriber flagged as gapped")
	}
}

func TestHubSlowConsumerEvictedWithoutStalling(t *testing.T) {
	h := NewHub(HubOptions{FirstID: 1, QueueLen: 4})
	defer h.Close()
	slow, _, err := h.Subscribe("#", 0) // never drained
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := h.Subscribe("#", 0)
	if err != nil {
		t.Fatal(err)
	}
	var drained atomic.Int64
	done := make(chan []Entry)
	go func() {
		var got []Entry
		for batch := range fast.C {
			got = append(got, batch...)
			drained.Add(int64(len(batch)))
		}
		done <- got
	}()

	start := time.Now()
	for i := 1; i <= 20; i++ {
		if err := h.Publish(event("x/y", fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		// Pace on the fast consumer so only the slow one builds backlog.
		for drained.Load() < int64(i) && time.Since(start) < 5*time.Second {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("publish stalled behind slow consumer: %v for 20 events", d)
	}
	if !slow.Evicted() {
		t.Fatal("slow consumer not evicted")
	}
	// The slow consumer's channel closes after its buffered entries.
	n := 0
	for range slow.C {
		n++
	}
	if n != 4 {
		t.Fatalf("slow consumer drained %d buffered entries, want 4", n)
	}
	h.Close()
	got := <-done
	if len(got) != 20 {
		t.Fatalf("fast consumer saw %d/20 events", len(got))
	}
	if st := h.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d", st.Evicted)
	}
}

// newStreamServer wires a stream service into a full api.Server behind
// httptest (the complete middleware chain, gzip included, exactly as a
// real service serves it).
func newStreamServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if opts.Hub.FirstID == 0 {
		opts.Hub.FirstID = 1
	}
	svc, err := NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(api.Options{Service: "streamtest"})
	svc.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func TestSSERoundTrip(t *testing.T) {
	svc, ts := newStreamServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sub, err := Subscribe(ctx, ts.URL, "measurements/#", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// The SSE subscription races the first publish; wait for the hub to
	// see the subscriber before publishing.
	waitSubscribers(t, svc, 1)

	want := map[string]bool{}
	for i := 0; i < 5; i++ {
		topic := fmt.Sprintf("measurements/dev%d/temperature", i)
		want[topic] = true
		if err := svc.Hub().Publish(middleware.Event{
			Topic:   topic,
			Payload: []byte(fmt.Sprintf(`{"n":%d}`, i)),
			Headers: map[string]string{"content-type": "application/json"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Hub().Publish(event("other/topic", "filtered")) // must not arrive

	for i := 0; i < 5; i++ {
		select {
		case ev := <-sub.Events:
			if !want[ev.Topic] {
				t.Fatalf("unexpected topic %s", ev.Topic)
			}
			delete(want, ev.Topic)
			if ev.Headers["content-type"] != "application/json" {
				t.Fatalf("headers lost: %+v", ev.Headers)
			}
			if ev.At.IsZero() {
				t.Fatal("timestamp lost in transit")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d topics outstanding", len(want))
		}
	}
}

// postEvent injects one event through a service's /v1/publish ingress,
// single attempt — what client.Streams().Publish sends.
func postEvent(base string, ev middleware.Event) error {
	tr := &api.Transport{MaxAttempts: 1}
	return tr.PostJSON(context.Background(), api.URL(base, "/publish"), ev, nil)
}

func TestPublishIngressReachesHubAndStream(t *testing.T) {
	svc, ts := newStreamServer(t, Options{})
	ctx := context.Background()

	// An in-process hub subscriber and a remote SSE subscriber both see
	// an event injected through the HTTP ingress.
	local, _, err := svc.Hub().Subscribe("ingress/#", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	sub, err := Subscribe(ctx, ts.URL, "ingress/#", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, svc, 2)

	if err := postEvent(ts.URL, event("ingress/x", "hello")); err != nil {
		t.Fatal(err)
	}
	if ev := collect(t, local.C, 1)[0].Event; ev.Topic != "ingress/x" || string(ev.Payload) != "hello" {
		t.Fatalf("local got %+v", ev)
	}
	select {
	case ev := <-sub.Events:
		if ev.Topic != "ingress/x" || string(ev.Payload) != "hello" {
			t.Fatalf("sse got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sse subscriber never saw the ingress event")
	}

	// Wildcard topics are refused at the ingress as the caller's fault,
	// and the hub counts the refusal.
	err = postEvent(ts.URL, middleware.Event{Topic: "bad/#", Payload: []byte("x")})
	var se *api.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("wildcard topic publish = %v, want 400", err)
	}
	if n := svc.Hub().Stats().PublishErrors; n != 1 {
		t.Fatalf("publish errors = %d after one refused event, want 1", n)
	}
}

// A publish the hub refuses because it is closed (the service is
// shutting down under a still-listening server) must not be acknowledged:
// the event is dropped, so the caller gets a retryable 503, not "published".
func TestPublishOnClosedHubIsUnavailable(t *testing.T) {
	svc, ts := newStreamServer(t, Options{})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rsp, err := http.Post(api.URL(ts.URL, "/publish"), "application/json",
		strings.NewReader(`{"topic":"a/b","payload":"eA=="}`))
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var env api.Envelope
	if err := json.NewDecoder(rsp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if rsp.StatusCode != http.StatusServiceUnavailable || env.Code != "unavailable" || rsp.Header.Get("Retry-After") == "" {
		t.Fatalf("publish on a closed hub = %d %+v (Retry-After %q), want a 503 envelope with Retry-After",
			rsp.StatusCode, env, rsp.Header.Get("Retry-After"))
	}
	if n := svc.Hub().Stats().PublishErrors; n != 1 {
		t.Fatalf("publish errors = %d after one refused event, want 1", n)
	}
}

// TestSSEReconnectResumeExactlyOnce drives the full resume loop: the
// hub evicts every SSE subscriber mid-stream (KickAll — the same path a
// slow-consumer eviction or service drain takes), the client reconnects
// on its own with Last-Event-ID, and the replay ring fills the gap so
// the consumer sees every event exactly once.
func TestSSEReconnectResumeExactlyOnce(t *testing.T) {
	svc, ts := newStreamServer(t, Options{Hub: HubOptions{History: 256}})
	ctx := context.Background()

	sub, err := Subscribe(ctx, ts.URL, "seq/#", SubscribeOptions{
		BaseDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, svc, 1)

	publish := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := svc.Hub().Publish(event("seq/n", fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	receive := func(n int) []string {
		var out []string
		deadline := time.After(10 * time.Second)
		for len(out) < n {
			select {
			case ev, ok := <-sub.Events:
				if !ok {
					t.Fatalf("stream ended early (%v) after %d/%d", sub.Err(), len(out), n)
				}
				out = append(out, string(ev.Payload))
			case <-deadline:
				t.Fatalf("timeout after %d/%d events", len(out), n)
			}
		}
		return out
	}

	publish(1, 10)
	got := receive(10)

	// Kill every server-side subscription; publish while the client is
	// disconnected; the reconnect must replay exactly what was missed.
	if n := svc.Hub().KickAll(); n != 1 {
		t.Fatalf("kicked %d subscribers, want 1", n)
	}
	publish(11, 20)
	waitSubscribers(t, svc, 1) // reconnected
	publish(21, 25)
	got = append(got, receive(15)...)

	if sub.Reconnects() == 0 {
		t.Fatal("client never reconnected")
	}
	seen := map[string]int{}
	for _, p := range got {
		seen[p]++
	}
	for i := 1; i <= 25; i++ {
		if seen[fmt.Sprint(i)] != 1 {
			t.Fatalf("event %d delivered %d times; all: %v", i, seen[fmt.Sprint(i)], got)
		}
	}
}

func TestPublishIngressRateLimited(t *testing.T) {
	_, ts := newStreamServer(t, Options{
		PublishLimiter: api.NewRateLimiter(1, 2), // 2-token burst, 1/s refill
	})
	if err := postEvent(ts.URL, event("a/b", "1")); err != nil {
		t.Fatal(err)
	}
	if err := postEvent(ts.URL, event("a/b", "2")); err != nil {
		t.Fatal(err)
	}
	err := postEvent(ts.URL, event("a/b", "3"))
	var se *api.StatusError
	if err == nil || !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("third publish = %v, want 429", err)
	}
}

// waitSubscribers polls the hub until the subscriber count reaches n.
func waitSubscribers(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Hub().Stats().Subscribers >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("hub never reached %d subscribers", n)
}

func TestHubDurableResumeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHub(HubOptions{Dir: dir, History: 64, FirstID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Publish(event("measurements/turin/a", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	lastID := h.LastID()
	if lastID != 10 {
		t.Fatalf("lastID = %d, want 10", lastID)
	}
	h.Close()

	// A new process: the ring comes back from disk, IDs continue, and a
	// pre-restart Last-Event-ID replays the gap with no Gap flag.
	h2, err := OpenHub(HubOptions{Dir: dir, History: 64, FirstID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.LastID(); got != lastID {
		t.Fatalf("reloaded lastID = %d, want %d", got, lastID)
	}
	if got := h2.Stats().Retained; got != 10 {
		t.Fatalf("reloaded retained = %d, want 10", got)
	}
	sub, replay, err := h2.Subscribe("measurements/#", 5)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Gap {
		t.Fatal("resume across restart flagged a gap")
	}
	if len(replay) != 5 || replay[0].ID != 6 || string(replay[4].Event.Payload) != "v9" {
		t.Fatalf("replay = %d entries, first %v", len(replay), replay)
	}
	// New publishes continue the sequence.
	if err := h2.Publish(event("measurements/turin/a", "fresh")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub.C, 1)
	if got[0].ID != 11 {
		t.Fatalf("post-restart ID = %d, want 11", got[0].ID)
	}
}

func TestHubDurableRingBoundedAndCompacted(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHub(HubOptions{Dir: dir, History: 8, FirstID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := h.Publish(event("measurements/turin/b", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()

	h2, err := OpenHub(HubOptions{Dir: dir, History: 8, FirstID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.Stats().Retained; got != 8 {
		t.Fatalf("retained = %d, want History", got)
	}
	// Resuming from before the ring reaches back is flagged as a gap,
	// exactly like the memory-only hub.
	sub, replay, err := h2.Subscribe("measurements/#", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if !sub.Gap {
		t.Fatal("expired resume point not flagged")
	}
	if len(replay) == 0 || replay[len(replay)-1].ID != 100 {
		t.Fatalf("replay tail = %v", replay)
	}
}

func TestHubDurableReopenNeverReusesLiveIDs(t *testing.T) {
	// Default (wall-clock) FirstID on reopen: even if the journal tail
	// were lost, new events must get IDs above everything the previous
	// process assigned — and a cursor in the resulting ID hole is
	// flagged as a gap instead of silently skipping events.
	dir := t.TempDir()
	h, err := OpenHub(HubOptions{Dir: dir, History: 16, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // IDs 100..103 journaled
		if err := h.Publish(event("measurements/turin/c", "x")); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()

	// Reopen with a FirstID far ahead (standing in for the wall clock
	// after IDs 104..120 were assigned live but lost from the journal).
	h2, err := OpenHub(HubOptions{Dir: dir, History: 16, FirstID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := h2.LastID(); got != 999 {
		t.Fatalf("lastID after jump = %d, want 999", got)
	}
	if err := h2.Publish(event("measurements/turin/c", "fresh")); err != nil {
		t.Fatal(err)
	}
	// A cursor inside the hole (an ID the journal never saw) is a gap.
	sub, replay, err := h2.Subscribe("measurements/#", 110)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if !sub.Gap {
		t.Fatal("cursor in the ID hole not flagged as gap")
	}
	if len(replay) != 1 || replay[0].ID != 1000 {
		t.Fatalf("replay across the hole = %v", replay)
	}
	// A cursor exactly at the journal tail resumes gaplessly.
	sub2, replay2, err := h2.Subscribe("measurements/#", 103)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if sub2.Gap {
		t.Fatal("journal-tail cursor wrongly flagged")
	}
	if len(replay2) != 1 || replay2[0].ID != 1000 {
		t.Fatalf("replay2 = %v", replay2)
	}
}
