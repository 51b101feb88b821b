package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/integration"
	"repro/internal/measuredb"
	"repro/internal/middleware"
	"repro/internal/qcache"
	"repro/internal/stream"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// The probes price single layers in this process: each replays inputs
// the workload generated (its ingest batch, its glob query, the SUT's
// stopped data directory) into one layer's public functions and times
// the call. They run after the SUT has stopped, so nothing competes
// with them, and their numbers are the per-layer costs the end-to-end
// budget is checked against.

// probeBudget is how long one probe loops.
const probeBudget = 150 * time.Millisecond

// timeLoop calls fn until the budget is spent (at least twice, after
// one untimed warm-up call) and returns the mean nanoseconds per call.
func timeLoop(fn func()) float64 {
	fn()
	n := 0
	began := time.Now()
	for n < 2 || time.Since(began) < probeBudget {
		fn()
		n++
	}
	return float64(time.Since(began)) / float64(n)
}

// discard is an http.ResponseWriter that drops the body, so a handler
// probe measures the handler and not a recorder's buffer.
type discard struct {
	h      http.Header
	status int
}

func newDiscard() *discard                     { return &discard{h: http.Header{}} }
func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(status int) {
	if d.status == 0 {
		d.status = status
	}
}

// serveOK runs one request through a handler and fails the probe on a
// non-200 answer.
func serveOK(h http.Handler, req *http.Request) error {
	w := newDiscard()
	h.ServeHTTP(w, req)
	if w.status != 0 && w.status != http.StatusOK {
		return fmt.Errorf("%s %s answered %d", req.Method, req.URL.Path, w.status)
	}
	return nil
}

// nopEngine accepts and forgets every append: the ingest handler over
// it costs decode, validation and staging only.
type nopEngine struct{ tsdb.Engine }

func (nopEngine) Append(tsdb.SeriesKey, tsdb.Sample) error { return nil }
func (nopEngine) AppendBatch([]tsdb.Row) []error           { return nil }
func (nopEngine) Stats() tsdb.Stats                        { return tsdb.Stats{} }
func (nopEngine) Keys() []tsdb.SeriesKey                   { return nil }
func (nopEngine) Close()                                   {}

// probeInputs is what a workload hands the probes.
type probeInputs struct {
	batch  []measuredb.Point // one of its ingest batches (or corpus-load batches)
	series []seriesID
	// from/to bracket the data the SUT holds.
	from, to time.Time
	// globFrom/globTo is the range the workload's glob aggregate asks
	// for (read workloads; zero means the whole data).
	globFrom, globTo time.Time
	// write says the dominant op is the ingest ack, of opRows rows;
	// otherwise it is the glob aggregate.
	write  bool
	opRows int
}

// shifted returns the batch as engine rows, every timestamp moved by d.
func shifted(batch []measuredb.Point, d time.Duration, dst []tsdb.Row) []tsdb.Row {
	dst = dst[:0]
	for _, p := range batch {
		dst = append(dst, tsdb.Row{
			Key:    tsdb.SeriesKey{Device: p.Device, Quantity: p.Quantity},
			Sample: tsdb.Sample{At: p.At.Add(d), Value: p.Value},
		})
	}
	return dst
}

// ingestBodies pre-encodes n copies of the batch as POST /v2/ingest
// bodies, copy i shifted i hours on, so a handler probe appends in time
// order the way a producer does.
func ingestBodies(batch []measuredb.Point, n int) ([][]byte, error) {
	out := make([][]byte, n)
	rows := make([]measuredb.Point, len(batch))
	for i := range out {
		for r, p := range batch {
			p.At = p.At.Add(time.Duration(i) * time.Hour)
			rows[r] = p
		}
		raw, err := json.Marshal(measuredb.IngestBatch{Rows: rows})
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// ingestHandlerNS posts each body once through a service's handler and
// returns nanoseconds per row.
func ingestHandlerNS(svc *measuredb.Service, bodies [][]byte, rows int) (float64, error) {
	h := svc.Handler()
	post := func(body []byte) error {
		req := httptest.NewRequest(http.MethodPost, "/v2/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		return serveOK(h, req)
	}
	if err := post(bodies[0]); err != nil {
		return 0, err
	}
	began := time.Now()
	for _, body := range bodies[1:] {
		if err := post(body); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(began)) / float64((len(bodies)-1)*rows), nil
}

func runProbes(e *env, wl workload) error {
	in := wl.probeInputs(e)
	if in.globFrom.IsZero() {
		in.globFrom, in.globTo = in.from, in.to
	}
	L := e.layer
	ctx := context.Background()
	scratch := filepath.Join(e.sut.spec.DataDir, "probes")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	rows := len(in.batch)

	// --- client ------------------------------------------------------
	if err := probeClient(ctx, in, L); err != nil {
		return fmt.Errorf("client: %w", err)
	}

	// --- api + measuredb write side ------------------------------------
	mem := measuredb.New(measuredb.Options{DisableLegacyAliases: true, Shards: 8})
	health := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	L["api.chain_us_per_request"] = timeLoop(func() { _ = serveOK(mem.Handler(), health) }) / 1e3
	bodies, err := ingestBodies(in.batch, 48)
	if err != nil {
		return err
	}
	if L["measuredb.ingest_handler_ns_per_row"], err = ingestHandlerNS(mem, bodies, rows); err != nil {
		return err
	}
	mem.Close()
	nop := measuredb.New(measuredb.Options{DisableLegacyAliases: true, Engine: nopEngine{}})
	if L["measuredb.ingest_decode_ns_per_row"], err = ingestHandlerNS(nop, bodies, rows); err != nil {
		return err
	}
	nop.Close()

	// --- tsdb + wal append ---------------------------------------------
	var buf []tsdb.Row
	appendNS := func(eng *tsdb.Sharded) (float64, int) {
		i := 0
		ns := timeLoop(func() {
			buf = shifted(in.batch, time.Duration(i)*time.Hour, buf)
			eng.AppendBatch(buf)
			i++
		})
		return ns / float64(rows), i * rows
	}
	memEng := tsdb.NewSharded(tsdb.ShardedOptions{Shards: 8, Store: tsdb.Options{MaxSamplesPerSeries: 1 << 20}})
	L["tsdb.append_ns_per_row.mem"], _ = appendNS(memEng)
	memEng.Close()
	walDir := filepath.Join(scratch, "wal-engine")
	walEng, err := tsdb.OpenSharded(tsdb.ShardedOptions{Shards: 8, Dir: walDir, SnapshotEvery: -1,
		Store: tsdb.Options{MaxSamplesPerSeries: 1 << 20}})
	if err != nil {
		return err
	}
	var appended int
	L["tsdb.append_ns_per_row.wal"], appended = appendNS(walEng)
	walEng.Close()
	walBytes := dirSize(walDir, ".seg")
	L["wal.bytes_per_row"] = float64(walBytes) / float64(appended)
	L["measuredb.ingest_self_ns_per_row"] = L["measuredb.ingest_handler_ns_per_row"] - L["tsdb.append_ns_per_row.mem"]

	// The log alone: records the size one batch's shard group takes.
	log, err := wal.Open(filepath.Join(scratch, "wal-alone"), wal.Options{})
	if err != nil {
		return err
	}
	record := make([]byte, max(int(L["wal.bytes_per_row"]*float64(rows))/8, 64))
	L["wal.append_batch_ns_per_row"] = timeLoop(func() { _, _ = log.Append(record) }) / (float64(rows) / 8)
	if err := log.Close(); err != nil {
		return err
	}

	// --- block codec ----------------------------------------------------
	if err := probeBlock(e, in, scratch); err != nil {
		return fmt.Errorf("block: %w", err)
	}

	// --- stream hub -----------------------------------------------------
	probeHub(in, L)

	// --- qcache ---------------------------------------------------------
	qc := qcache.New(4 << 20)
	val := make([]byte, 512)
	keys := make([]string, 256)
	for i := range keys {
		var k qcache.Key
		keys[i] = k.Str("agg").Str(in.series[i%len(in.series)].Device).Int(int64(i)).String()
		qc.Put(keys[i], val)
	}
	i := 0
	L["qcache.get_ns"] = timeLoop(func() { qc.Get(keys[i%len(keys)]); i++ })

	// --- read side, on the stopped SUT's own data ------------------------
	nodeNS, err := probeReadPath(e, in)
	if err != nil {
		return fmt.Errorf("read path: %w", err)
	}

	// --- coordinator, against an in-process two-node cluster -------------
	if err := probeCoordinator(ctx, in, L); err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}

	// --- the paper's other layers, against an in-process district --------
	if err := probeDistrict(ctx, L); err != nil {
		return fmt.Errorf("district: %w", err)
	}

	// --- budget -----------------------------------------------------------
	// What share of the dominant op's median the layers do not explain
	// (README.md, "Budget"): the client's own share and the
	// coordinator's come from the sampled traces, the server stages
	// from the trace rings, and what no stage covers from the probes.
	// On an open loop the op is timed from its due instant, so the
	// generator's median lateness is part of it.
	hops := L["client.net_self_ms_p50"] + e.hopSelfMS + L["api.chain_us_per_request"]/1e3
	var total, attributed float64
	if in.write {
		total = e.named["ack_ms_p50"]
		attributed = hops + e.lagP50MS + L["measuredb.ingest_decode_ns_per_row"]*float64(in.opRows)/1e6 +
			(L["measuredb.dedup_claim_us_p50"]+L["wal.append_us_p50"]+L["tsdb.store_apply_us_p50"]+L["stream.hub_publish_us_p50"])/1e3
	} else {
		total = e.named["agg_glob_ms_p50"]
		attributed = hops + nodeNS/1e6
	}
	if total > 0 {
		L["budget.unattributed_share"] = 1 - attributed/total
	}
	return nil
}

// dirSize sums the sizes of files under dir with the given suffix.
func dirSize(dir, suffix string) (n int64) {
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == suffix {
			n += info.Size()
		}
		return nil
	})
	return n
}

// probeClient prices the client library against canned replies: the
// ingest sub-client's marshal + round trip + reply decode, and the
// NDJSON stream decoder.
func probeClient(ctx context.Context, in probeInputs, L map[string]float64) error {
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for _, p := range in.batch {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	ack, _ := json.Marshal(measuredb.IngestResult{Accepted: len(in.batch)})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.Method == http.MethodGet {
			w.Header().Set("Content-Type", measuredb.NDJSONType)
			_, _ = w.Write(nd.Bytes())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(ack)
	}))
	defer stub.Close()
	cl := &client.Client{MaxAttempts: 1}
	var err error
	ing := cl.Ingest(stub.URL)
	ns := timeLoop(func() {
		if _, e := ing.Append(ctx, in.batch); e != nil {
			err = e
		}
	})
	L["client.append_us_per_row"] = ns / 1e3 / float64(len(in.batch))
	meas := cl.Measurements(stub.URL)
	ns = timeLoop(func() {
		st, e := meas.Stream(ctx, in.series[0].Device, in.series[0].Quantity)
		if e != nil {
			err = e
			return
		}
		for {
			if _, ok := st.Next(); !ok {
				break
			}
		}
		st.Close()
	})
	L["client.stream_decode_ns_per_row"] = ns / float64(len(in.batch))
	return err
}

// probeBlock prices the block codec on the workload's own value
// function: write, raw decode, and rollup read.
func probeBlock(e *env, in probeInputs, scratch string) error {
	const nSeries, perSeries = 16, 8192
	ids := append([]seriesID(nil), in.series[:min(nSeries, len(in.series))]...)
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Device != ids[j].Device {
			return ids[i].Device < ids[j].Device
		}
		return ids[i].Quantity < ids[j].Quantity
	})
	base := e.anchor.Add(-48 * time.Hour).UnixNano()
	pts := make([][]block.Point, len(ids))
	for s := range ids {
		pts[s] = make([]block.Point, perSeries)
		for k := range pts[s] {
			pts[s][k] = block.Point{T: base + int64(k)*int64(time.Second), V: valueAt(e.cfg.seed, s, int64(k))}
		}
	}
	path := filepath.Join(scratch, "probe.blk")
	var size int64
	ns := timeLoop(func() {
		w, err := block.NewWriter(path)
		if err != nil {
			return
		}
		for s, id := range ids {
			_ = w.Add(block.Key{Device: id.Device, Quantity: id.Quantity}, pts[s])
		}
		_, size, _ = w.Finish()
	})
	total := float64(len(ids) * perSeries)
	e.layer["block.write_ns_per_sample"] = ns / total
	if _, ok := e.layer["block.bytes_per_sample"]; !ok && size > 0 {
		e.layer["block.bytes_per_sample"] = float64(size) / total
	}
	b, err := block.Open(path)
	if err != nil {
		return err
	}
	defer b.Release()
	var dst []block.Point
	ns = timeLoop(func() {
		for _, id := range ids {
			dst, _ = b.Points(dst[:0], block.Key{Device: id.Device, Quantity: id.Quantity}, base, base+int64(perSeries)*int64(time.Second))
		}
	})
	e.layer["block.decode_ns_per_sample"] = ns / total
	buckets := 0
	ns = timeLoop(func() {
		buckets = 0
		for _, id := range ids {
			bk, _ := b.Rollup(block.Key{Device: id.Device, Quantity: id.Quantity}, block.Res1m)
			buckets += len(bk)
		}
	})
	if buckets > 0 {
		e.layer["block.rollup_ns_per_bucket"] = ns / float64(buckets)
	}
	return nil
}

// probeHub prices Hub.Publish with nobody listening and with one
// subscriber draining.
func probeHub(in probeInputs, L map[string]float64) {
	payload, _ := dataformat.NewMeasurementDoc(dataformat.Measurement{
		Device: in.series[0].Device, Quantity: dataformat.Quantity(in.series[0].Quantity), Value: 21.5, Timestamp: time.Now().UTC(),
	}).Encode(dataformat.JSON)
	ev := middleware.Event{Topic: in.series[0].Topic, Payload: payload, Headers: map[string]string{"content-type": "application/json"}, At: time.Now().UTC()}
	hub := stream.NewHub(stream.HubOptions{})
	L["stream.publish_ns_per_event.subs0"] = timeLoop(func() { _ = hub.Publish(ev) })
	sub, _, err := hub.Subscribe(measuredb.IngestPattern, 0)
	if err == nil {
		done := make(chan struct{})
		go func() {
			for range sub.C {
			}
			close(done)
		}()
		L["stream.publish_ns_per_event.subs1"] = timeLoop(func() { _ = hub.Publish(ev) })
		sub.Close()
		<-done
	}
	_ = hub.Close()
}

// probeReadPath opens node 0's storage directory, as the stopped SUT
// left it, in this process: the engine for the scan and decode costs,
// then the whole service for the handler-level read costs. It returns
// the nanoseconds node 0 needs for the workload's glob aggregate.
func probeReadPath(e *env, in probeInputs) (nodeNS float64, err error) {
	L := e.layer
	began := time.Now()
	svc, err := measuredb.Open(measuredb.Options{
		DisableLegacyAliases: true, Shards: e.sut.spec.MeasureShards,
		DataDir: filepath.Dir(e.sut.tsdbDir(0)),
	})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	if _, ok := L["tsdb.recovery_ms"]; !ok {
		L["tsdb.recovery_ms"] = float64(time.Since(began)) / float64(time.Millisecond)
	}
	eng := svc.Store()
	// A series this node holds, preferring the longest.
	var key tsdb.SeriesKey
	best := 0
	for _, id := range in.series {
		k := tsdb.SeriesKey{Device: id.Device, Quantity: id.Quantity}
		if a, err := eng.Aggregate(k, in.from, in.to); err == nil && a.Count > best {
			key, best = k, a.Count
		}
	}
	if best == 0 {
		return 0, nil
	}
	// Everything older than the head window was compacted into blocks
	// when the SUT stopped being written to.
	cut := time.Now().Add(-tsdb.DefaultHeadWindow - time.Minute)
	count := func(from, to time.Time) int {
		a, err := eng.Aggregate(key, from, to)
		if err != nil {
			return 0
		}
		return a.Count
	}
	if n := count(cut.Add(2*time.Minute), in.to); n > 0 {
		L["tsdb.head_aggregate_ns_per_sample"] = timeLoop(func() { _, _ = eng.Aggregate(key, cut.Add(2*time.Minute), in.to) }) / float64(n)
		L["tsdb.iter_ns_per_sample.head"] = timeLoop(func() {
			it := eng.Iter(key, cut.Add(2*time.Minute), in.to, 0)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		}) / float64(n)
	}
	if n := count(in.from, cut); n > 0 {
		L["tsdb.block_aggregate_us"] = timeLoop(func() { _, _ = eng.Aggregate(key, in.from, cut) }) / 1e3
		L["tsdb.iter_ns_per_sample.block"] = timeLoop(func() {
			it := eng.Iter(key, in.from, cut, 0)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		}) / float64(n)
	}

	// Handler level: the sample encoders over this series, net of the
	// engine's iteration, and the glob aggregate per matched series.
	h := svc.Handler()
	target := "/v2/series/" + url.PathEscape(key.Device) + "/" + url.PathEscape(key.Quantity) + "/samples"
	q := url.Values{"from": {in.from.Format(time.RFC3339Nano)}, "to": {in.to.Format(time.RFC3339Nano)}, "limit": {"10000"}}
	served := min(best, 10000)
	iterNS := L["tsdb.iter_ns_per_sample.block"]
	if iterNS == 0 {
		iterNS = L["tsdb.iter_ns_per_sample.head"]
	}
	for _, encoding := range []string{"json", "ndjson", "csv"} {
		q.Set("encoding", encoding)
		req := httptest.NewRequest(http.MethodGet, target+"?"+q.Encode(), nil)
		if err := serveOK(h, req); err != nil {
			return 0, err
		}
		L["measuredb.encode_ns_per_row."+encoding] = timeLoop(func() { _ = serveOK(h, req) })/float64(served) - iterNS
	}
	body, _ := json.Marshal(measuredb.BatchQuery{
		Selectors: []measuredb.SeriesSelector{{Device: globPattern, Quantity: globQuantity}},
		From:      in.globFrom, To: in.globTo, Aggregate: true,
	})
	matched := 0
	for _, id := range in.series {
		if eng.Len(tsdb.SeriesKey{Device: id.Device, Quantity: id.Quantity}) > 0 && globMatches(id) {
			matched++
		}
	}
	if matched > 0 {
		post := func() error {
			req := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			return serveOK(h, req)
		}
		if err := post(); err != nil {
			return 0, err
		}
		nodeNS = timeLoop(func() { _ = post() })
		L["measuredb.batch_query_us_per_series"] = nodeNS / 1e3 / float64(matched)
	}
	return nodeNS, nil
}

// probeCoordinator boots a two-node in-memory cluster in this process
// and sends the same request — rows and selectors that node 0 owns —
// once through the coordinator and once straight to the node.
func probeCoordinator(ctx context.Context, in probeInputs, L map[string]float64) error {
	d, err := core.Bootstrap(core.Spec{District: district, Buildings: 1, DevicesPerBuilding: 1, PollEvery: time.Hour, MeasureNodes: 2, MeasureShards: 8})
	if err != nil {
		return err
	}
	defer d.Close()
	owned := func(device string) bool { return tsdb.ShardOf(device, 8)%2 == 0 } // round-robin map: even shards → node 0
	var rows []measuredb.Point
	var sels []measuredb.SeriesSelector
	seen := map[string]bool{}
	for _, p := range in.batch {
		if owned(p.Device) {
			rows = append(rows, p)
			if !seen[p.Device] && len(sels) < 20 {
				seen[p.Device] = true
				sels = append(sels, measuredb.SeriesSelector{Device: p.Device, Quantity: p.Quantity})
			}
		}
	}
	if len(rows) == 0 {
		return nil
	}
	cl := &client.Client{MaxAttempts: 1}
	var firstErr error
	ingestMS := func(base string) float64 {
		ing := cl.Ingest(base)
		i := 0
		send := make([]measuredb.Point, len(rows))
		return timeLoop(func() {
			for r, p := range rows {
				p.At = p.At.Add(time.Duration(i) * time.Hour)
				send[r] = p
			}
			i++
			if res, err := ing.Append(ctx, send); err != nil || res.Accepted != len(send) {
				firstErr = fmt.Errorf("append via %s: err=%v result=%+v", base, err, res)
			}
		}) / 1e6
	}
	direct, via := ingestMS(d.MeasureNodeURLs[0]), ingestMS(d.MeasureURL)
	L["measuredb.coordinator_ingest_ratio"] = via / direct
	L["measuredb.coordinator_ingest_us_per_row"] = (via - direct) * 1e3 / float64(len(rows))
	queryMS := func(base string) float64 {
		meas := cl.Measurements(base)
		return timeLoop(func() {
			if _, err := meas.Query(ctx, measuredb.BatchQuery{Selectors: sels, Aggregate: true}); err != nil {
				firstErr = err
			}
		}) / 1e6
	}
	direct, via = queryMS(d.MeasureNodeURLs[0]), queryMS(d.MeasureURL)
	L["measuredb.coordinator_query_ratio"] = via / direct
	return firstErr
}

// probeDistrict boots a one-building district with one device per
// protocol in this process and prices the layers the measurements
// workloads do not touch: device polls, the common data format codec,
// and the integration merge.
func probeDistrict(ctx context.Context, L map[string]float64) error {
	d, err := core.Bootstrap(core.Spec{District: district, Buildings: 1, DevicesPerBuilding: len(core.AllProtocols), PollEvery: time.Hour})
	if err != nil {
		return err
	}
	defer d.Close()
	names := map[core.Protocol]string{core.ProtoIEEE802154: "ieee802154", core.ProtoZigBee: "zigbee", core.ProtoEnOcean: "enocean", core.ProtoOPCUA: "opcua"}
	for i, p := range d.DeviceProxies {
		// The median: the shared ingest batcher flushes inline on a few
		// of the polls, and those are not the poll's cost.
		var us []float64
		for n := 0; n < 60; n++ {
			began := time.Now()
			p.PollOnce()
			us = append(us, float64(time.Since(began))/1e3)
		}
		L["deviceproxy.poll_us."+names[core.AllProtocols[i%len(core.AllProtocols)]]] = median(us)
	}
	model, err := d.Client().BuildAreaModel(ctx, district, client.Area{}, client.BuildOptions{IncludeDevices: true, IncludeGIS: true})
	if err != nil {
		return err
	}
	L["integration.merge_us"] = timeLoop(func() {
		g := integration.NewMerger(district)
		for _, en := range model.Entities {
			g.AddEntity("probe", en)
		}
		g.AddMeasurements("probe", model.Measurements)
		_ = g.Result()
	}) / 1e3
	doc := dataformat.NewEntitySetDoc(model.Entities)
	for _, enc := range []dataformat.Encoding{dataformat.JSON, dataformat.XML} {
		var cerr error
		us := timeLoop(func() {
			raw, err := doc.Encode(enc)
			if err == nil {
				_, err = dataformat.Decode(raw, enc)
			}
			if err != nil {
				cerr = err
			}
		}) / 1e3
		if cerr != nil {
			return cerr
		}
		L["dataformat.codec_us."+string(enc)] = us
	}
	return nil
}
