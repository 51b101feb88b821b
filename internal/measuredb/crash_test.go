package measuredb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
	"repro/internal/wal"
)

// copyTree copies the regular files under src into dst. Every node-log
// and snapshot write was write(2)-flushed before the process moved on,
// so a copy taken while the service stands still is what a SIGKILL at
// that instant leaves on disk.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKeyedIngestExactlyOnceAcrossKill kills a keyed delivery after a
// chunk is journaled and before its response, then retries the key on
// what the kill left: every row must be stored exactly once, and the
// retry must answer what the uninterrupted delivery did.
func TestKeyedIngestExactlyOnceAcrossKill(t *testing.T) {
	for _, tc := range []struct {
		name         string
		rows, shards int
		cut          int // the kill comes once this many body rows are journaled
	}{
		{"one chunk over 8 shards", 200, 8, 200},
		{"three chunks cut after the second", 1300, 4, 2 * ingestChunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The body: 40 devices, so every shard gets rows, and rows the
			// summary rejects in every chunk.
			var b strings.Builder
			b.WriteString(`{"rows":[`)
			want := map[tsdb.SeriesKey]int{}
			for i := 0; i < tc.rows; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				dev := fmt.Sprintf("urn:district:turin/building:b%02d/device:k%d", i%40/4, i%40)
				at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second).Format(time.RFC3339)
				switch {
				case i%500 == 7:
					dev = ""
				case i%500 == 9:
					at = "0001-06-01T00:00:00Z"
				default:
					want[tsdb.SeriesKey{Device: dev, Quantity: "temperature"}]++
				}
				fmt.Fprintf(&b, `{"device":%q,"quantity":"temperature","at":%q,"value":%d}`, dev, at, i)
			}
			b.WriteString(`]}`)
			body := b.String()
			open := func(dir string) (*Service, *httptest.Server) {
				s, err := Open(Options{DataDir: dir, Fsync: wal.FsyncAlways, Shards: tc.shards})
				if err != nil {
					t.Fatal(err)
				}
				return s, httptest.NewServer(s.Handler())
			}
			post := func(url string) IngestResult {
				code, rsp := postIngest(t, url, "application/json", "crash-key", body)
				var res IngestResult
				if err := json.Unmarshal([]byte(rsp), &res); code != http.StatusOK || err != nil {
					t.Fatalf("ingest = %d: %s", code, rsp)
				}
				return res
			}

			dir, killed := t.TempDir(), t.TempDir()
			s1, ts1 := open(dir)
			defer func() { ts1.Close(); s1.Close() }()
			copied := false
			chunkJournaled = func(next int) {
				if !copied && next >= tc.cut {
					copyTree(t, dir, killed)
					copied = true
				}
			}
			defer func() { chunkJournaled = nil }()
			whole := post(ts1.URL)
			chunkJournaled = nil
			if !copied {
				t.Fatal("the kill point was never reached")
			}

			s2, ts2 := open(killed)
			defer func() { ts2.Close(); s2.Close() }()
			retry := post(ts2.URL)
			retry.Replayed = false
			if !reflect.DeepEqual(retry, whole) {
				t.Fatalf("retry after the kill answered %+v, the uninterrupted delivery %+v", retry, whole)
			}
			total := 0
			for key, n := range want {
				got, err := s2.Store().Query(key, time.Time{}, time.Now())
				if err != nil || len(got) != n {
					t.Fatalf("%v holds %d samples (%v), want each of its %d rows once", key, len(got), err, n)
				}
				total += n
			}
			if got := s2.Store().Stats().Samples; got != total {
				t.Fatalf("store holds %d samples, want %d", got, total)
			}
		})
	}
}

// upgradeBody is request n of the per-shard-layout fixture: rows
// from..from+n-1 over ten devices, at one-second steps from 2015-03-09.
func upgradeBody(from, n int) (string, []tsdb.Row) {
	var b strings.Builder
	b.WriteString(`{"rows":[`)
	var rows []tsdb.Row
	for i := from; i < from+n; i++ {
		if i > from {
			b.WriteByte(',')
		}
		dev := fmt.Sprintf("urn:district:turin/building:b0%d/device:u%d", i%10/3, i%10)
		at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
		fmt.Fprintf(&b, `{"device":%q,"quantity":"temperature","at":%q,"value":%d}`, dev, at.Format(time.RFC3339), i)
		rows = append(rows, tsdb.Row{Key: tsdb.SeriesKey{Device: dev, Quantity: "temperature"}, Sample: tsdb.Sample{At: at, Value: float64(i)}})
	}
	b.WriteString(`]}`)
	return b.String(), rows
}

// TestDurableUpgradeFromPerShardLayout boots a data dir the per-shard
// layout wrote (testdata/per-shard-layout: two shards, each with a
// block, a snapshot and its own WAL holding a tail above it, and the
// idempotency window's own log under dedup/ with two outcomes claimed
// in 2100): every row is stored once, a remembered key replays, and the
// legacy files are gone — on the upgrading boot and on the next.
func TestDurableUpgradeFromPerShardLayout(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "per-shard-layout"), dir)
	var want []tsdb.Row
	var bodies []string
	for i, n := range []int{130, 37, 12} {
		body, rows := upgradeBody(i*1000, n)
		bodies = append(bodies, body)
		want = append(want, rows...)
	}
	for boot := 1; boot <= 2; boot++ {
		s, ts := openDurableServer(t, dir)
		for _, pattern := range []string{"tsdb/shard-*/*.seg", "dedup"} {
			if left, _ := filepath.Glob(filepath.Join(dir, pattern)); len(left) != 0 {
				t.Fatalf("boot %d left %v", boot, left)
			}
		}
		byKey := map[tsdb.SeriesKey][]tsdb.Sample{}
		for _, r := range want {
			byKey[r.Key] = append(byKey[r.Key], r.Sample)
		}
		for key, smps := range byKey {
			got, err := s.Store().Query(key, time.Time{}, time.Now())
			if err != nil || !reflect.DeepEqual(got, smps) {
				t.Fatalf("boot %d: %v holds %d samples (%v), want its %d rows once", boot, key, len(got), err, len(smps))
			}
		}
		code, rsp := postIngest(t, ts.URL, "application/json", "fixture-key-1", bodies[0])
		if code != http.StatusOK || rsp != `{"accepted":130,"rejected":0,"replayed":true}`+"\n" {
			t.Fatalf("boot %d: retry of a remembered key = %d %s", boot, code, rsp)
		}
		if got := s.Store().Stats().Samples; got != len(want) {
			t.Fatalf("boot %d: %d samples, want %d", boot, got, len(want))
		}
		ts.Close()
		s.Close()
	}
}
