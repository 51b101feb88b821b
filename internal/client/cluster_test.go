package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/cluster"
)

// TestMoveStreamsALargeArchive moves a shard whose archive is larger
// than api.MaxResponseBytes between stub nodes: the restore receives
// the archive whole, byte for byte, the map flips once, and the source
// is released once, after the flip.
func TestMoveStreamsALargeArchive(t *testing.T) {
	archive := make([]byte, 17<<20)
	for i := range archive {
		archive[i] = byte(i % 251) // a prime cycle: a lost or repeated chunk shows
	}
	if len(archive) <= api.MaxResponseBytes {
		t.Fatalf("archive of %d bytes is within the %d-byte response bound", len(archive), api.MaxResponseBytes)
	}
	var flips, releases atomic.Int32
	src := http.NewServeMux()
	src.HandleFunc("POST /v1/cluster/shards/0/freeze", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{}`)
	})
	src.HandleFunc("GET /v1/cluster/shards/0/archive", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(archive)
	})
	src.HandleFunc("POST /v1/cluster/shards/0/release", func(w http.ResponseWriter, r *http.Request) {
		if flips.Load() != 1 {
			t.Error("source released before the map flipped")
		}
		releases.Add(1)
		io.WriteString(w, `{}`)
	})
	srcTS := httptest.NewServer(src)
	defer srcTS.Close()

	var restored atomic.Pointer[[sha256.Size]byte]
	var restoredBytes atomic.Int64
	dst := http.NewServeMux()
	dst.HandleFunc("POST /v1/cluster/shards/0/restore", func(w http.ResponseWriter, r *http.Request) {
		h := sha256.New()
		n, err := io.Copy(h, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		restored.Store(&sum)
		restoredBytes.Store(n)
		io.WriteString(w, `{"shard":0,"rows":42}`)
	})
	dstTS := httptest.NewServer(dst)
	defer dstTS.Close()

	m := cluster.Map{Epoch: 1, Shards: 2, Owners: []string{srcTS.URL, dstTS.URL}}
	master := http.NewServeMux()
	master.HandleFunc("GET /v1/cluster/map", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(m)
	})
	master.HandleFunc("POST /v1/cluster/move", func(w http.ResponseWriter, r *http.Request) {
		flips.Add(1)
		json.NewEncoder(w).Encode(cluster.Map{Epoch: 2, Shards: 2, Owners: []string{dstTS.URL, dstTS.URL}})
	})
	masterTS := httptest.NewServer(master)
	defer masterTS.Close()

	c := &Client{MasterURL: masterTS.URL, MaxAttempts: 1}
	rep, err := c.Cluster().Move(context.Background(), 0, dstTS.URL)
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if rep.Rows != 42 || rep.Epoch != 2 || rep.From != srcTS.URL || rep.To != dstTS.URL {
		t.Errorf("report %+v, want 42 rows at epoch 2 from the source to the target", rep)
	}
	want := sha256.Sum256(archive)
	if got := restored.Load(); got == nil || !bytes.Equal(got[:], want[:]) || restoredBytes.Load() != int64(len(archive)) {
		t.Errorf("restore received %d bytes (digest match %v), want the %d-byte archive", restoredBytes.Load(), got != nil && *got == want, len(archive))
	}
	if flips.Load() != 1 || releases.Load() != 1 {
		t.Errorf("%d flips and %d releases, want one each", flips.Load(), releases.Load())
	}
}
