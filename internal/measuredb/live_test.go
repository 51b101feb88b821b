package measuredb

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/dataformat"
	"repro/internal/stream"
	"repro/internal/tsdb"
)

// The live path's append encoders replaced NewMeasurementDoc(..).Encode
// and the Split-and-concatenate Topic; subscribers must see no change.

func checkMeasurementDoc(t *testing.T, source string, key tsdb.SeriesKey, smp tsdb.Sample) {
	t.Helper()
	m := measurementsOf(key, []tsdb.Sample{smp}, source)[0]
	want, err := dataformat.NewMeasurementDoc(m).Encode(dataformat.JSON)
	if err != nil {
		return // non-finite value or out-of-range year: the ingest plane never stores one
	}
	got := appendMeasurementDoc(nil, source, key, m.Unit, smp)
	if !bytes.Equal(got, want) {
		t.Errorf("measurement %+v:\nappend: %s\nencode: %s", m, got, want)
	}
}

func TestAppendMeasurementDocMatchesDocumentEncode(t *testing.T) {
	for _, source := range []string{"", "127.0.0.1:8086", "host<&>\u2028"} {
		for _, dev := range encodeStrings {
			for _, q := range []string{"temperature", "power.active", "state.switch", "made<up>", ""} {
				for _, v := range encodeFloats {
					for _, at := range encodeTimes {
						checkMeasurementDoc(t, source, tsdb.SeriesKey{Device: dev, Quantity: q}, tsdb.Sample{At: at, Value: v})
					}
				}
			}
		}
	}
}

func FuzzAppendMeasurementDoc(f *testing.F) {
	f.Add("127.0.0.1:1", "urn:district:turin/building:b00/device:d0", "temperature", 21.5, int64(1425895200), int64(0))
	f.Add("", "d\xff<", "q\u2029", -1e-7, int64(0), int64(999999999))
	f.Fuzz(func(t *testing.T, source, device, quantity string, v float64, sec, nsec int64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		checkMeasurementDoc(t, source, tsdb.SeriesKey{Device: device, Quantity: quantity}, tsdb.Sample{At: time.Unix(sec, nsec).UTC(), Value: v})
	})
}

// topicBySplit is Topic as it was before appendTopic — split the URI
// path, sanitise each segment, concatenate — kept verbatim as the
// reference.
func topicBySplit(deviceURI, quantity string) string {
	topic := TopicRoot
	rest := deviceURI
	const prefix = "urn:district:"
	if len(rest) > len(prefix) && rest[:len(prefix)] == prefix {
		rest = rest[len(prefix):]
	}
	var segs []string
	start := 0
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			if i > start {
				segs = append(segs, rest[start:i])
			}
			start = i + 1
		}
	}
	if start < len(rest) {
		segs = append(segs, rest[start:])
	}
	for _, seg := range segs {
		if seg == "+" || seg == "#" || seg == "" {
			seg = "_"
		}
		topic += "/" + seg
	}
	return topic + "/" + quantity
}

func TestAppendTopicMatchesSplitReference(t *testing.T) {
	for _, dev := range []string{
		"urn:district:turin/building:b00/device:d0", "turin/b/d", "", "/", "//a//b//", "urn:district:",
		"urn:district:/x", "a/+/#/b", "+", "#", "urn:district:+", "urn:other:x/y", "é/ü",
	} {
		for _, q := range []string{"temperature", "", "a/b", "#"} {
			if got, want := Topic(dev, dataformat.Quantity(q)), topicBySplit(dev, q); got != want {
				t.Errorf("Topic(%q, %q) = %q, reference %q", dev, q, got, want)
			}
		}
	}
	// Appending after other topics (the chunk buffer) only appends.
	b := appendTopic([]byte("x"), "urn:district:t/d", "q")
	if string(b) != "xmeasurements/t/d/q" {
		t.Errorf("appendTopic onto a prefix = %q", b)
	}
}

func FuzzAppendTopic(f *testing.F) {
	f.Add("urn:district:turin/building:b00/device:d0", "temperature")
	f.Add("//+/#//", "")
	f.Fuzz(func(t *testing.T, dev, q string) {
		if got, want := Topic(dev, dataformat.Quantity(q)), topicBySplit(dev, q); got != want {
			t.Errorf("Topic(%q, %q) = %q, reference %q", dev, q, got, want)
		}
	})
}

// waitHubSubscribers polls the service's hub for its subscriber count.
func waitHubSubscribers(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stream().Hub().Stats().Subscribers != n {
		if time.Now().After(deadline) {
			t.Fatalf("hub has %d subscribers, want %d", s.Stream().Hub().Stats().Subscribers, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestV2IngestKeepsRowsWhileSoleSubscriberReconnects: rows acked while
// the only SSE subscriber is between connections (here: kicked, and
// backing off before its reconnect) must be in the hub's ring when its
// Last-Event-ID resume arrives. The ingest plane used to publish only
// while the subscriber count was non-zero, so exactly those rows
// vanished without a gap marker.
func TestV2IngestKeepsRowsWhileSoleSubscriberReconnects(t *testing.T) {
	s, ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := stream.Subscribe(ctx, ts.URL, IngestPattern, stream.SubscribeOptions{BaseDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitHubSubscribers(t, s, 1)

	ingest := func(value int) {
		t.Helper()
		body := fmt.Sprintf(`{"rows":[{"device":%q,"quantity":"temperature","at":"2015-03-09T10:00:0%dZ","value":%d}]}`, ingestDevice, value, value)
		if code, rsp := postIngest(t, ts.URL, "application/json", "", body); code != http.StatusOK {
			t.Fatalf("ingest %d = %d: %s", value, code, rsp)
		}
	}
	ingest(1)
	if n := s.Stream().Hub().KickAll(); n != 1 {
		t.Fatalf("kicked %d subscribers, want 1", n)
	}
	ingest(2) // nobody is subscribed: the client is backing off (>= 50 ms)
	if got := s.Stream().Hub().Stats().Subscribers; got != 0 {
		t.Skipf("client reconnected before row 2 was ingested (%d subscribers): nothing to observe", got)
	}
	waitHubSubscribers(t, s, 1)
	ingest(3)

	for want := 1; want <= 3; want++ {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatalf("stream ended: %v", sub.Err())
			}
			doc, err := dataformat.Decode(ev.Payload, dataformat.JSON)
			if err != nil {
				t.Fatal(err)
			}
			if got := doc.Measurement.Value; got != float64(want) {
				t.Fatalf("received row %v where row %d was due: a row acked during the reconnect was lost", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for row %d", want)
		}
	}
	if sub.Reconnects() == 0 {
		t.Fatal("client never reconnected")
	}
}

// TestV2IngestSkipsHubNobodySubscribedTo: bulk ingest with no listener,
// ever, leaves the hub (IDs, ring) untouched.
func TestV2IngestSkipsHubNobodySubscribedTo(t *testing.T) {
	s, ts := newTestServer(t)
	before := s.Stream().Hub().LastID()
	body := `{"rows":[{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":1}]}`
	if code, rsp := postIngest(t, ts.URL, "application/json", "", body); code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rsp)
	}
	if st := s.Stream().Hub().Stats(); st.Published != 0 || st.Retained != 0 || s.Stream().Hub().LastID() != before {
		t.Fatalf("hub touched with no subscriber ever: %+v", st)
	}
}

// TestV2IngestChunkIsOneHubBatch: a request's accepted rows reach an
// in-process subscriber as one item with the documented event shape,
// rejected rows left out.
func TestV2IngestChunkIsOneHubBatch(t *testing.T) {
	s, ts := newTestServer(t)
	sub, _, err := s.Stream().Hub().Subscribe(IngestPattern, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	body := `{"rows":[
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20.5},
		{"device":"","quantity":"temperature","value":1},
		{"device":"` + ingestDevice + `","quantity":"humidity","at":"2015-03-09T10:00:00.5Z","value":41}]}`
	if code, rsp := postIngest(t, ts.URL, "application/json", "", body); code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rsp)
	}
	var batch []stream.Entry
	select {
	case batch = <-sub.C:
	case <-time.After(2 * time.Second):
		t.Fatal("no live batch")
	}
	if len(batch) != 2 || batch[1].ID != batch[0].ID+1 {
		t.Fatalf("batch = %+v, want the two accepted rows under consecutive IDs", batch)
	}
	for i, q := range []string{"temperature", "humidity"} {
		ev := batch[i].Event
		if ev.Topic != Topic(ingestDevice, dataformat.Quantity(q)) || ev.Headers["content-type"] != "application/json" {
			t.Fatalf("event %d = %+v", i, ev)
		}
		doc, err := dataformat.Decode(ev.Payload, dataformat.JSON)
		if err != nil || doc.Measurement.Device != ingestDevice || !doc.Measurement.Timestamp.Equal(ev.At) {
			t.Fatalf("event %d payload %s: %v", i, ev.Payload, err)
		}
	}
}
