package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/measuredb"
)

// Ingest is the measurements-database write sub-client, bound to one
// service base URL. It speaks the /v2 ingest data plane: batched JSON
// appends, single-series PUTs, a size/interval auto-flushing batch
// builder for steady producers (device proxies, load generators), and a
// row-at-a-time NDJSON streaming writer for bulk backfills.
//
// Every delivery carries an Idempotency-Key — caller-supplied or minted
// per batch — so the transport's retries can replay a timed-out request
// without double-appending its rows.
//
// Bodies are built by append from measuredb's row encoder: the bytes
// json.Marshal renders, without its reflection, every row canonical for
// the server's in-place scanner. A batch holding a row encoding/json
// refuses (NaN, ±Inf, a year outside 0–9999) goes to json.Marshal
// whole, which words the error.
type Ingest struct {
	c    *Client
	base string
}

// Ingest returns the write sub-client for the measurements database at
// baseURL.
func (c *Client) Ingest(baseURL string) *Ingest {
	return &Ingest{c: c, base: baseURL}
}

// IngestOption tunes one ingest delivery.
type IngestOption func(*ingestOpts)

type ingestOpts struct {
	idempotencyKey string
}

// WithIdempotencyKey pins the delivery's Idempotency-Key (default: a
// fresh key per call, which still protects transport-level retries).
func WithIdempotencyKey(key string) IngestOption {
	return func(o *ingestOpts) { o.idempotencyKey = key }
}

func applyIngestOpts(opts []IngestOption) ingestOpts {
	o := ingestOpts{idempotencyKey: api.NewRequestID()}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// post delivers rows as one {"<field>":[…]} JSON write and decodes the
// summary envelope.
func (g *Ingest) post(ctx context.Context, method, u, field string, rows []measuredb.Point, o ingestOpts) (*measuredb.IngestResult, error) {
	body, ok := measuredb.AppendBatch(make([]byte, 0, 16+128*len(rows)), field, rows)
	if !ok {
		var err error
		if body, err = json.Marshal(map[string][]measuredb.Point{field: rows}); err != nil {
			return nil, err
		}
	}
	h := http.Header{
		"Accept":       {"application/json"},
		"Content-Type": {"application/json"},
	}
	if o.idempotencyKey != "" {
		h.Set("Idempotency-Key", o.idempotencyKey)
	}
	raw, _, err := g.c.transport().Do(ctx, method, u, h, body)
	if err != nil {
		return nil, err
	}
	var out measuredb.IngestResult
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Append delivers one batch of self-contained rows (device and quantity
// on each row) to POST /v2/ingest, returning the per-row summary.
func (g *Ingest) Append(ctx context.Context, rows []measuredb.Point, opts ...IngestOption) (*measuredb.IngestResult, error) {
	if len(rows) == 0 {
		return &measuredb.IngestResult{}, nil
	}
	o := applyIngestOpts(opts)
	return g.post(ctx, http.MethodPost, api.URL2(g.base, "/ingest"), "rows", rows, o)
}

// AppendSeries appends samples to one series through
// PUT /v2/series/{device}/{quantity}/samples; sample rows need only
// at/value.
func (g *Ingest) AppendSeries(ctx context.Context, device, quantity string, samples []measuredb.Point, opts ...IngestOption) (*measuredb.IngestResult, error) {
	if len(samples) == 0 {
		return &measuredb.IngestResult{}, nil
	}
	o := applyIngestOpts(opts)
	u := api.URL2(g.base, "/series/"+api.PathSegment(device)+"/"+api.PathSegment(quantity)+"/samples")
	return g.post(ctx, http.MethodPut, u, "samples", samples, o)
}

// ---------------------------------------------------------------------
// Auto-flushing batch builder
// ---------------------------------------------------------------------

// BatcherOptions tune a Batcher.
type BatcherOptions struct {
	// MaxRows flushes when the pending batch reaches this size
	// (default 256).
	MaxRows int
	// FlushEvery flushes a non-empty pending batch on this interval,
	// bounding staleness for slow producers (default 1s; negative
	// disables the timer — size-only flushing).
	FlushEvery time.Duration
	// OnError observes failed deliveries (nil: drop silently). The rows
	// of a failed delivery — their count is passed along — are dropped,
	// not retried: the transport already retried transient failures
	// under the batch's idempotency key.
	OnError func(rows int, err error)
	// OnResult observes each delivery's summary (nil: ignored).
	OnResult func(*measuredb.IngestResult)
}

// flushTimeout bounds one Batcher delivery.
const flushTimeout = 10 * time.Second

// Batcher coalesces single samples into /v2/ingest batches, flushing on
// size or interval. Most Adds only stage the row under a
// lock; the Add that fills the batch to MaxRows delivers it inline
// (bounded by flushTimeout), which is the batcher's backpressure: a
// producer outrunning the database slows to the delivery rate instead
// of buffering without bound.
type Batcher struct {
	g    *Ingest
	opts BatcherOptions

	mu     sync.Mutex
	buf    []measuredb.Point
	closed bool

	stop chan struct{}
	done chan struct{}
}

// Batcher builds an auto-flushing batch writer over this sub-client.
func (g *Ingest) Batcher(opts BatcherOptions) *Batcher {
	if opts.MaxRows <= 0 {
		opts.MaxRows = 256
	}
	if opts.FlushEvery == 0 {
		opts.FlushEvery = time.Second
	}
	b := &Batcher{
		g:    g,
		opts: opts,
		buf:  make([]measuredb.Point, 0, opts.MaxRows),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// loop drives the interval flushes.
func (b *Batcher) loop() {
	defer close(b.done)
	if b.opts.FlushEvery < 0 {
		<-b.stop
		return
	}
	ticker := time.NewTicker(b.opts.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			b.flush(b.take(0))
		case <-b.stop:
			return
		}
	}
}

// take removes and returns the pending rows when they number at least
// threshold (0 takes any).
func (b *Batcher) take(threshold int) []measuredb.Point {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.buf) == 0 || len(b.buf) < threshold {
		return nil
	}
	rows := b.buf
	b.buf = make([]measuredb.Point, 0, b.opts.MaxRows)
	return rows
}

// flush delivers one taken batch. Append mints the batch's
// Idempotency-Key, and the transport retries under it, so a batch a node
// applied but whose answer was lost replays rather than re-applies.
func (b *Batcher) flush(rows []measuredb.Point) {
	if len(rows) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	res, err := b.g.Append(ctx, rows)
	if err != nil {
		if b.opts.OnError != nil {
			b.opts.OnError(len(rows), err)
		}
		return
	}
	if b.opts.OnResult != nil {
		b.opts.OnResult(res)
	}
}

// ErrBatcherClosed is returned by Add after Close.
var ErrBatcherClosed = errors.New("client: ingest batcher closed")

// Add stages one row, flushing inline when the size threshold fires.
func (b *Batcher) Add(p measuredb.Point) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBatcherClosed
	}
	b.buf = append(b.buf, p)
	b.mu.Unlock()
	b.flush(b.take(b.opts.MaxRows))
	return nil
}

// Flush delivers any pending rows now.
func (b *Batcher) Flush() { b.flush(b.take(0)) }

// Close stops the interval goroutine and delivers the pending tail.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
	b.flush(b.take(0))
}

// ---------------------------------------------------------------------
// NDJSON streaming writer
// ---------------------------------------------------------------------

// IngestStream is a row-at-a-time NDJSON write: rows cross the wire as
// they are written (chunked transfer, ingestStreamBuf at a time),
// neither end materializes the batch, and Close returns the server's
// per-row summary.
type IngestStream struct {
	pw     *io.PipeWriter
	buf    []byte // whole encoded rows not yet handed to the pipe
	result chan streamResult
	closed bool
}

// ingestStreamBuf is how many encoded bytes an IngestStream gathers
// before one write to the request pipe: a pipe write is a rendezvous
// with the HTTP transport's goroutine, too dear to pay per row.
const ingestStreamBuf = 32 << 10

type streamResult struct {
	res *measuredb.IngestResult
	err error
}

// Stream opens an NDJSON streaming write to POST /v2/ingest. Write rows
// with Write, then Close to finish the request and read the summary.
func (g *Ingest) Stream(ctx context.Context, opts ...IngestOption) (*IngestStream, error) {
	o := applyIngestOpts(opts)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, api.URL2(g.base, "/ingest"), pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", measuredb.NDJSONType)
	req.Header.Set("Accept", "application/json")
	if o.idempotencyKey != "" {
		req.Header.Set("Idempotency-Key", o.idempotencyKey)
	}
	hc := g.c.streamHTTP()
	st := &IngestStream{pw: pw, buf: make([]byte, 0, ingestStreamBuf+1024), result: make(chan streamResult, 1)}
	go func() {
		rsp, err := hc.Do(req)
		if err != nil {
			pr.CloseWithError(err) // unblock a writer mid-Write
			st.result <- streamResult{err: err}
			return
		}
		defer rsp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(rsp.Body, 1<<20))
		if rsp.StatusCode != http.StatusOK {
			st.result <- streamResult{err: &api.StatusError{
				Method: http.MethodPost, URL: req.URL.String(),
				Status: rsp.StatusCode, Body: strings.TrimSpace(string(raw)),
			}}
			return
		}
		var res measuredb.IngestResult
		if err := json.Unmarshal(raw, &res); err != nil {
			st.result <- streamResult{err: err}
			return
		}
		st.result <- streamResult{res: &res}
	}()
	return st, nil
}

// Write ships one row: encoded now, on the wire once the buffer fills
// or the stream is closed.
//
// districtlint:hotpath
func (s *IngestStream) Write(p measuredb.Point) error {
	if s.closed {
		return errIngestStreamClosed
	}
	if !measuredb.PointOK(p) {
		return unencodable(p)
	}
	s.buf = append(measuredb.AppendPoint(s.buf, p), '\n')
	if len(s.buf) < ingestStreamBuf {
		return nil
	}
	return s.flush()
}

var errIngestStreamClosed = errors.New("client: write on a closed ingest stream")

// unencodable words the refusal of a row encoding/json does not accept,
// as json.Encoder did when it encoded the rows.
func unencodable(p measuredb.Point) error {
	_, err := json.Marshal(p)
	return err
}

// flush hands the buffered rows to the request pipe.
func (s *IngestStream) flush() error {
	if len(s.buf) == 0 {
		return nil // an empty pipe write would still wait for a reader
	}
	_, err := s.pw.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// Close finishes the upload and returns the server's summary envelope.
func (s *IngestStream) Close() (*measuredb.IngestResult, error) {
	if s.closed {
		return nil, fmt.Errorf("client: ingest stream closed twice")
	}
	s.closed = true
	err := s.flush()
	_ = s.pw.Close() // a PipeWriter's Close cannot fail
	r := <-s.result
	if r.err == nil && err != nil {
		return nil, err // the tail never left, whatever the server made of the rest
	}
	return r.res, r.err
}

// Abort cancels the upload without a summary (e.g. the producer failed
// mid-stream); the server keeps the rows already received, the rows
// still buffered are dropped.
func (s *IngestStream) Abort(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.pw.CloseWithError(err)
	<-s.result
}
