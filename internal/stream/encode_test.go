package stream

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/middleware"
)

// appendEvent replaced json.Marshal(middleware.Event) on the publish
// path; the journal on disk and every SSE data line are its output, so
// it must be indistinguishable from the reflective encoder.

func checkEventEncoding(t *testing.T, ev middleware.Event) {
	t.Helper()
	want, err := json.Marshal(ev)
	if err != nil {
		if checkEvent(&ev) == nil {
			t.Errorf("json refuses %+v (%v) but the hub would publish it", ev, err)
		}
		return
	}
	got := appendEvent(nil, &ev)
	if !bytes.Equal(got, want) {
		t.Errorf("event %+v:\nappend:  %s\nmarshal: %s", ev, got, want)
	}
	if n := eventsWireLen([]middleware.Event{ev}); n < len(got) && !strings.ContainsAny(string(got), `\`) {
		t.Errorf("eventsWireLen = %d < %d encoded bytes of an escape-free event %s", n, len(got), got)
	}
}

func TestAppendEventMatchesJSONMarshal(t *testing.T) {
	at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	for _, ev := range goldenEvents() {
		checkEventEncoding(t, ev)
	}
	for _, ev := range []middleware.Event{
		{},
		{Topic: "a/b", At: at},
		{Topic: "a/b", Payload: []byte{}, At: at},
		{Topic: "a/b", Payload: []byte("x"), At: at},
		{Topic: "a/b", Payload: []byte("xy"), At: at},
		{Topic: "a/b", Payload: []byte("xyz"), At: at},
		{Topic: "a/b", Payload: bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 20000), At: at},
		{Topic: "html <script> & friends >", Payload: []byte("p"), At: at.Add(time.Nanosecond)},
		{Topic: "line\u2028para\u2029", Headers: map[string]string{"\u2028": "\u2029"}, At: at},
		{Topic: "bad\xffutf8\xc3", Headers: map[string]string{"k\xff": "v\xed\xa0\x80"}, At: at},
		{Topic: "ctl\x00\x1f\t\n\r\b\f\"\\", At: at},
		{Topic: "t", Headers: map[string]string{}, At: at},
		{Topic: "t", Headers: map[string]string{"b": "2", "a": "1", "c": "3", "B": "x", "": "empty", "aa": "y"}, At: at},
		{Topic: "t", Headers: map[string]string{"k1": "", "k0": "", "k9": "", "k8": "", "k7": "", "k6": "", "k5": "", "k4": "", "k3": "", "k2": ""}, At: at},
		{Topic: "t", At: at.In(time.FixedZone("x", -5*3600-30*60))},
		{Topic: "t", At: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Topic: "t", At: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)},
		{Topic: "t", At: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}, // json refuses; so must checkEvent
		{Topic: "t", At: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		checkEventEncoding(t, ev)
	}
}

func FuzzAppendEvent(f *testing.F) {
	f.Add("measurements/turin/d/temperature", []byte(`{"v":1}`), "content-type", "application/json", "", "", int64(1425895200), int64(0))
	f.Add("a<b>&\u2028", []byte(nil), "k\xff", "v", "a", "b", int64(0), int64(123456789))
	f.Add("", []byte{}, "", "", "", "", int64(-62135596800), int64(1))
	f.Fuzz(func(t *testing.T, topic string, payload []byte, k1, v1, k2, v2 string, sec, nsec int64) {
		ev := middleware.Event{Topic: topic, Payload: payload, At: time.Unix(sec, nsec).UTC()}
		if k1 != "" || v1 != "" {
			ev.Headers = map[string]string{k1: v1}
			if k2 != "" {
				ev.Headers[k2] = v2
			}
		}
		checkEventEncoding(t, ev)
	})
}
