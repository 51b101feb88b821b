package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

// ---------------------------------------------------------------------
// Tracing: client spans recorded here, server spans fetched from the
// services' trace rings.
// ---------------------------------------------------------------------

// traceSampleEvery is the share of traced requests whose server spans
// are fetched: the rings hold 512 spans, so a sampled request is
// fetched right after it completes, before it ages out. One in ten
// leaves the open-loop workloads (200 requests in a traced phase) with
// enough samples for a median.
const traceSampleEvery = 10

// stageLayer says which module a server stage's time belongs to.
var stageLayer = map[string]string{
	"dedup-claim": "measuredb",
	"wal-append":  "wal",
	"store-apply": "tsdb",
	"hub-publish": "stream",
}

type tracer struct {
	ops      *client.Client
	services []string // base URLs whose rings a request may have crossed

	mu    sync.Mutex
	n     int
	spans []span
	// sampled lists, by op, the requests whose server spans were
	// fetched; stageMS the stage times, by stage name.
	sampled map[string][]sampledRequest
	stageMS map[string][]float64
}

// sampledRequest names the spans of one fetched request: the client's,
// the server span it waited on, and whether that server routed the
// request on to others (a coordinator).
type sampledRequest struct {
	client, server string
	routed         bool
}

func newTracer(cl *client.Client, services []string) *tracer {
	return &tracer{
		ops: cl, services: services,
		sampled: map[string][]sampledRequest{}, stageMS: map[string][]float64{},
	}
}

func (t *tracer) call(ctx context.Context, name string, rows int, fn func(context.Context) error) (time.Time, error) {
	id := obs.NewTraceID()
	sp := span{Trace: id, Span: obs.NewSpanID(), Layer: "client", Name: name, Rows: rows}
	start := time.Now()
	err := fn(obs.WithTraceID(ctx, id))
	end := time.Now()
	sp.StartNS, sp.EndNS = start.UnixNano(), end.UnixNano()
	t.mu.Lock()
	t.n++
	sampled := t.n%traceSampleEvery == 0
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	if sampled && err == nil {
		t.fetch(ctx, sp)
	}
	return end, err
}

// fetch hangs the server spans of one request, and their stages, under
// its client span. A service records its span after flushing the
// response, so a miss is retried briefly.
func (t *tracer) fetch(ctx context.Context, parent span) {
	var found []obs.SpanRecord
	for _, base := range t.services {
		for try := 0; try < 5; try++ {
			rsp, err := t.ops.Ops(base).Trace(ctx, parent.Trace)
			if err == nil {
				found = append(found, rsp.Spans...)
				break
			}
			time.Sleep(200 * time.Microsecond << try)
		}
	}
	if len(found) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// The longest server span is the one the client waited on; with a
	// coordinator in the path the others are the nodes it forwarded to,
	// and hang beneath it.
	outer := 0
	for i, rec := range found {
		if rec.DurationMS > found[outer].DurationMS {
			outer = i
		}
	}
	found[0], found[outer] = found[outer], found[0]
	outerID := obs.NewSpanID()
	t.sampled[parent.Name] = append(t.sampled[parent.Name], sampledRequest{client: parent.Span, server: outerID, routed: len(found) > 1})
	for i, rec := range found {
		srv := span{
			Trace: parent.Trace, Span: obs.NewSpanID(), Parent: outerID,
			Layer: "api", Name: rec.Method + " " + rec.Route,
			StartNS: rec.Start.UnixNano(),
			EndNS:   rec.Start.UnixNano() + int64(rec.DurationMS*1e6),
		}
		if i == 0 {
			srv.Span, srv.Parent = outerID, parent.Span
		}
		t.spans = append(t.spans, srv)
		// Stages carry durations only; lay them end to end from the
		// server span's start so self time (span − children) is right
		// even though the offsets are nominal.
		at := srv.StartNS
		for _, st := range rec.Stages {
			layer := stageLayer[st.Name]
			if layer == "" {
				layer = "measuredb"
			}
			d := int64(st.DurationMS * 1e6)
			t.spans = append(t.spans, span{
				Trace: parent.Trace, Span: obs.NewSpanID(), Parent: srv.Span,
				Layer: layer, Name: st.Name, StartNS: at, EndNS: at + d,
			})
			at += d
			t.stageMS[st.Name] = append(t.stageMS[st.Name], st.DurationMS)
		}
	}
}

// netSelfMS is, over the sampled requests of one op, the median self
// time of the client span — what the client spent outside the server:
// encode, loopback, decode — and of the routing server's span, the
// coordinator's own share (0 without a coordinator).
func (t *tracer) netSelfMS(op string) (net, hop float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sampled[op]) == 0 {
		// The primary op is not a client call of its own (a row's
		// visibility): take the call sampled most.
		for name, reqs := range t.sampled {
			if len(reqs) > len(t.sampled[op]) {
				op = name
			}
		}
	}
	self := selfTimes(t.spans)
	var nets, hops []float64
	for _, r := range t.sampled[op] {
		nets = append(nets, float64(self[r.client])/float64(time.Millisecond))
		if r.routed {
			hops = append(hops, float64(self[r.server])/float64(time.Millisecond))
		}
	}
	return median(nets), median(hops)
}

func (t *tracer) stageP50US(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.stageMS[name]) * 1e3
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSONLines(path, t.spans)
}
