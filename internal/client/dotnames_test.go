package client

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/measuredb"
)

// TestDotNamedSeriesRoundTrip: a device or quantity named "." or ".."
// is a valid series name, and the client reaches it on every
// per-series route, on a node and through the coordinator hop, although
// a raw "." or ".." path segment is one a router may clean away.
func TestDotNamedSeriesRoundTrip(t *testing.T) {
	bases := map[string]string{"node": dotNode(t)}
	owner := dotNode(t)
	ms := master.New(master.Options{})
	addr, err := ms.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ms.Close)
	if _, err := ms.ClusterMap().Set(cluster.Map{Shards: 1, Owners: []string{owner}}); err != nil {
		t.Fatal(err)
	}
	coord, err := measuredb.OpenCoordinator(measuredb.CoordinatorOptions{Master: "http://" + addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	caddr, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bases["coordinator"] = "http://" + caddr

	ctx := context.Background()
	c := &Client{MasterURL: "http://unused/"}
	series := [][2]string{{".", "temperature"}, {"..", "temperature"}, {"urn:d/1", "."}}
	for name, base := range bases {
		var rows []measuredb.Point
		for i, s := range series {
			for j := 0; j < 3; j++ {
				rows = append(rows, measuredb.Point{Device: s[0], Quantity: s[1],
					At: m0.Add(time.Duration(j) * time.Minute), Value: float64(10*i + j)})
			}
		}
		if res, err := c.Ingest(base).Append(ctx, rows); err != nil || res.Accepted != len(rows) {
			t.Fatalf("%s: ingest = %+v, %v", name, res, err)
		}
		mc := c.Measurements(base)
		for i, s := range series {
			device, quantity := s[0], s[1]
			page, err := mc.Samples(ctx, device, quantity)
			if err != nil || page.Count != 3 || page.Device != device || page.Quantity != quantity {
				t.Fatalf("%s %q/%q: samples = %+v, %v", name, device, quantity, page, err)
			}
			latest, err := mc.Latest(ctx, device, quantity)
			if err != nil || latest.Device != device || latest.Value != float64(10*i+2) {
				t.Fatalf("%s %q/%q: latest = %+v, %v", name, device, quantity, latest, err)
			}
			agg, err := mc.Aggregate(ctx, device, quantity)
			if err != nil || agg.Count != 3 || agg.Max != float64(10*i+2) {
				t.Fatalf("%s %q/%q: aggregate = %+v, %v", name, device, quantity, agg, err)
			}
			put := []measuredb.Point{{At: m0.Add(time.Hour), Value: -1}}
			if res, err := c.Ingest(base).AppendSeries(ctx, device, quantity, put); err != nil || res.Accepted != 1 {
				t.Fatalf("%s %q/%q: put samples = %+v, %v", name, device, quantity, res, err)
			}
			if page, err := mc.Samples(ctx, device, quantity); err != nil || page.Count != 4 {
				t.Fatalf("%s %q/%q: samples after put = %+v, %v", name, device, quantity, page, err)
			}
		}
	}
}

// dotNode serves a fresh in-memory measurements node.
func dotNode(t *testing.T) string {
	t.Helper()
	svc := measuredb.New(measuredb.Options{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts.URL
}
