package stream

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/middleware"
)

// The goldens under testdata were written by the commit before the
// batch publish (PR 15, one json.Marshal per event per use) with
// -update; this file uses only what both sides have — Hub.Publish, the
// HTTP endpoint, OpenHub — so it runs unchanged on either and pins that
// the SSE wire and the journal on disk did not move.
var update = flag.Bool("update", false, "rewrite the testdata goldens from this tree")

// goldenEvents is the fixed event set of both goldens: every shape the
// encoder distinguishes (escapes in topic and headers, nil/empty/binary
// payloads, no/one/several headers, whole-second and sub-second times).
func goldenEvents() []middleware.Event {
	at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	return []middleware.Event{
		{Topic: "measurements/turin/building:b00/device:d00/temperature",
			Payload: []byte(`{"version":"1.0","kind":"measurement"}`),
			Headers: map[string]string{"content-type": "application/json"}, At: at},
		{Topic: "measurements/turin/a<b>&c/line\u2028sep/temp", Payload: nil, At: at.Add(1500 * time.Millisecond)},
		{Topic: "registry/registered", Payload: []byte{}, Headers: map[string]string{}, At: at.Add(2 * time.Second)},
		{Topic: "measurements/bad\xffutf8/\"quoted\"\\", Payload: []byte{0, 1, 2, 0xfe, 0xff},
			Headers: map[string]string{"z-last": "<&>", "a-first": "1", "m\u2029id": "bad\xc3", "content-type": "text/plain"},
			At:      at.Add(3*time.Second + 123456789)},
		{Topic: "measurements/turin/building:b01/device:d07/power.active",
			Payload: bytes.Repeat([]byte("0123456789abcdef"), 40),
			Headers: map[string]string{"content-type": "application/json"},
			At:      time.Date(2015, 3, 9, 12, 0, 0, 250000000, time.FixedZone("CET", 3600))},
	}
}

// readFrames reads SSE bytes off br until the frame with the given id
// has been read whole, returning everything read.
func readFrames(t *testing.T, br *bufio.Reader, upTo uint64) []byte {
	t.Helper()
	var out []byte
	last := fmt.Sprintf("id: %d\n", upTo)
	seen := false
	for {
		line, err := br.ReadString('\n')
		out = append(out, line...)
		if err != nil {
			t.Fatalf("stream ended before frame %d: %v\nread so far: %q", upTo, err, out)
		}
		if line == last {
			seen = true
		}
		if seen && line == "\n" {
			return out
		}
	}
}

// TestSSEFrameGolden pins the bytes handleStream writes: a resume that
// replays two retained events, then three delivered live.
func TestSSEFrameGolden(t *testing.T) {
	svc, ts := newStreamServer(t, Options{})
	evs := goldenEvents()
	for _, ev := range evs[:3] {
		if err := svc.Hub().Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream?topic=%23&lastId=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	br := bufio.NewReader(rsp.Body)
	got := readFrames(t, br, 3)
	for _, ev := range evs[3:] {
		if err := svc.Hub().Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	got = append(got, readFrames(t, br, uint64(len(evs)))...)

	path := filepath.Join("testdata", "sse_frames.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SSE bytes moved:\n got %q\nwant %q", got, want)
	}
}

// journalGoldenDir holds a hub journal of goldenEvents (IDs 100..104).
var journalGoldenDir = filepath.Join("testdata", "journal.golden")

func writeGoldenJournal(t *testing.T, dir string) {
	t.Helper()
	h, err := OpenHub(HubOptions{Dir: dir, History: 64, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range goldenEvents() {
		if err := h.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestHubDurableJournalGolden pins the journal both ways: this tree
// writes the committed journal byte for byte, and reopening the
// committed journal (written by the parent commit) rebuilds the ring.
func TestHubDurableJournalGolden(t *testing.T) {
	if *update {
		if err := os.RemoveAll(journalGoldenDir); err != nil {
			t.Fatal(err)
		}
		writeGoldenJournal(t, journalGoldenDir)
	}
	want := dirFiles(t, journalGoldenDir)
	if len(want) == 0 {
		t.Fatal("empty journal golden")
	}

	fresh := t.TempDir()
	writeGoldenJournal(t, fresh)
	got := dirFiles(t, fresh)
	if len(got) != len(want) {
		t.Fatalf("journal files = %d, golden has %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("journal file %s moved:\n got %q\nwant %q", name, got[name], b)
		}
	}

	// Reopen a copy of the committed journal (opening may write).
	dir := t.TempDir()
	for name, b := range want {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h, err := OpenHub(HubOptions{Dir: dir, History: 64, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	evs := goldenEvents()
	if got := h.LastID(); got != 99+uint64(len(evs)) {
		t.Fatalf("reloaded lastID = %d", got)
	}
	sub, replay, err := h.Subscribe("#", 99)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Gap || len(replay) != len(evs) {
		t.Fatalf("replay = %d entries (gap %v), want %d", len(replay), sub.Gap, len(evs))
	}
	for i, e := range replay {
		ev := evs[i]
		if e.ID != 100+uint64(i) || e.Event.Topic != strings.ToValidUTF8(ev.Topic, "\ufffd") ||
			!bytes.Equal(e.Event.Payload, ev.Payload) || !e.Event.At.Equal(ev.At) || len(e.Event.Headers) != len(ev.Headers) {
			t.Fatalf("entry %d = %+v, want ID %d of %+v", i, e, 100+i, ev)
		}
	}
}
