package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/measuredb"
	"repro/internal/tsdb"
)

// Measurements is the measurements-database sub-client, bound to one
// service base URL (the master's query response carries it as
// MeasureURI). It speaks the /v2 query data plane: cursor-paginated
// sample reads with an auto-depaginating iterator, row-at-a-time NDJSON
// streaming, and batch multi-series queries with aggregate pushdown.
//
// Sample rows and batch answers are read by the ingest plane's own row
// scanner (measuredb.RowScanner, DecodeSamplesPage, DecodeBatchResponse):
// the canonical row or answer — what every server in this repository
// writes — is parsed in place, anything else is encoding/json's to
// decode, with json.Unmarshal's results.
type Measurements struct {
	c    *Client
	base string
}

// Measurements returns the sub-client for the measurements database at
// baseURL.
func (c *Client) Measurements(baseURL string) *Measurements {
	return &Measurements{c: c, base: baseURL}
}

// QueryOption tunes one measurements read.
type QueryOption func(*queryOpts)

type queryOpts struct {
	from, to time.Time
	limit    int
	cursor   string
	device   string
	quantity string
	window   time.Duration
	encoding string
}

// WithRange bounds the read to samples in [from, to]; zero bounds are
// open (to defaults to "now" server-side).
func WithRange(from, to time.Time) QueryOption {
	return func(o *queryOpts) { o.from, o.to = from, to }
}

// WithLimit caps one page (or one streamed response) at n samples.
func WithLimit(n int) QueryOption {
	return func(o *queryOpts) { o.limit = n }
}

// WithCursor resumes a paginated read after an opaque cursor a previous
// page returned.
func WithCursor(cursor string) QueryOption {
	return func(o *queryOpts) { o.cursor = cursor }
}

// WithDevice filters the series catalog by a device URI or glob
// ('*' matches any run of characters).
func WithDevice(glob string) QueryOption {
	return func(o *queryOpts) { o.device = glob }
}

// WithQuantity filters the series catalog by a quantity or glob.
func WithQuantity(glob string) QueryOption {
	return func(o *queryOpts) { o.quantity = glob }
}

// WithWindow asks for downsampled buckets of the given width instead of
// a single summary (Aggregate) — the pushdown stays server-side either
// way.
func WithWindow(window time.Duration) QueryOption {
	return func(o *queryOpts) { o.window = window }
}

// WithEncoding selects the streamed wire encoding ("ndjson" or "csv")
// for Stream; the default is NDJSON.
func WithEncoding(encoding string) QueryOption {
	return func(o *queryOpts) { o.encoding = encoding }
}

func applyOpts(opts []QueryOption) queryOpts {
	var o queryOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// values renders the shared query parameters.
func (o queryOpts) values() url.Values {
	v := url.Values{}
	if !o.from.IsZero() {
		v.Set("from", o.from.Format(time.RFC3339Nano))
	}
	if !o.to.IsZero() {
		v.Set("to", o.to.Format(time.RFC3339Nano))
	}
	if o.limit > 0 {
		v.Set("limit", strconv.Itoa(o.limit))
	}
	if o.cursor != "" {
		v.Set("cursor", o.cursor)
	}
	if o.device != "" {
		v.Set("device", o.device)
	}
	if o.quantity != "" {
		v.Set("quantity", o.quantity)
	}
	return v
}

// seriesURL builds a /v2 per-series route URL.
func (m *Measurements) seriesURL(device, quantity, leaf string, q url.Values) string {
	u := api.URL2(m.base, "/series/"+api.PathSegment(device)+"/"+api.PathSegment(quantity)+"/"+leaf)
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	return u
}

// Series returns one page of the series catalog (filter with
// WithDevice/WithQuantity globs, page with WithLimit/WithCursor).
func (m *Measurements) Series(ctx context.Context, opts ...QueryOption) (*measuredb.SeriesPage, error) {
	o := applyOpts(opts)
	u := api.URL2(m.base, "/series")
	if enc := o.values().Encode(); enc != "" {
		u += "?" + enc
	}
	var out measuredb.SeriesPage
	if err := m.c.transport().GetJSON(ctx, u, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AllSeries depaginates the whole series catalog.
func (m *Measurements) AllSeries(ctx context.Context, opts ...QueryOption) ([]measuredb.SeriesInfo, error) {
	var all []measuredb.SeriesInfo
	cursor := ""
	for {
		page, err := m.Series(ctx, append(opts[:len(opts):len(opts)], WithCursor(cursor))...)
		if err != nil {
			return all, err
		}
		all = append(all, page.Series...)
		if page.NextCursor == "" {
			return all, nil
		}
		cursor = page.NextCursor
	}
}

// Samples returns one cursor page of a series range.
func (m *Measurements) Samples(ctx context.Context, device, quantity string, opts ...QueryOption) (*measuredb.SamplesPage, error) {
	return m.samplesPage(ctx, device, quantity, applyOpts(opts))
}

// samplesPage fetches and decodes one JSON samples page.
func (m *Measurements) samplesPage(ctx context.Context, device, quantity string, o queryOpts) (*measuredb.SamplesPage, error) {
	h := http.Header{"Accept": {"application/json"}}
	raw, _, err := m.c.transport().Do(ctx, http.MethodGet, m.seriesURL(device, quantity, "samples", o.values()), h, nil)
	if err != nil {
		return nil, err
	}
	out := new(measuredb.SamplesPage)
	if err := measuredb.DecodeSamplesPage(raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Latest returns the freshest sample of a series.
func (m *Measurements) Latest(ctx context.Context, device, quantity string) (*dataformat.Measurement, error) {
	doc, err := m.c.transport().GetDoc(ctx, m.seriesURL(device, quantity, "latest", url.Values{}), m.c.enc())
	if err != nil {
		return nil, err
	}
	if doc.Measurement == nil {
		return nil, fmt.Errorf("client: latest returned a %q document, want measurement", doc.Kind)
	}
	return doc.Measurement, nil
}

// Aggregate returns a server-side range summary of a series.
func (m *Measurements) Aggregate(ctx context.Context, device, quantity string, opts ...QueryOption) (*measuredb.AggregateResponse, error) {
	o := applyOpts(opts)
	var out measuredb.AggregateResponse
	err := m.c.transport().GetJSON(ctx, m.seriesURL(device, quantity, "aggregate", o.values()), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Downsample returns server-side windowed buckets of a series.
func (m *Measurements) Downsample(ctx context.Context, device, quantity string, window time.Duration, opts ...QueryOption) ([]tsdb.Bucket, error) {
	o := applyOpts(opts)
	v := o.values()
	v.Set("window", window.String())
	var out []tsdb.Bucket
	err := m.c.transport().GetJSON(ctx, m.seriesURL(device, quantity, "aggregate", v), &out)
	return out, err
}

// Query evaluates a batch of series selectors in one round trip — the
// request a district dashboard polling hundreds of devices makes
// instead of hundreds of single-series reads.
func (m *Measurements) Query(ctx context.Context, req measuredb.BatchQuery) (*measuredb.BatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	h := http.Header{"Accept": {"application/json"}, "Content-Type": {"application/json"}}
	raw, _, err := m.c.transport().Do(ctx, http.MethodPost, api.URL2(m.base, "/query"), h, body)
	if err != nil {
		return nil, err
	}
	out := new(measuredb.BatchResponse)
	if err := measuredb.DecodeBatchResponse(raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SampleIter walks a series range page by page, transparently following
// cursors: the consumer sees one sample at a time, the process holds
// one page at most.
type SampleIter struct {
	ctx              context.Context
	m                *Measurements
	device, quantity string
	opts             queryOpts

	page  *measuredb.SamplesPage
	i     int
	pages int
	done  bool
	err   error
}

// Iter returns an auto-depaginating iterator over a series range
// (bound it with WithRange, size the pages with WithLimit).
func (m *Measurements) Iter(ctx context.Context, device, quantity string, opts ...QueryOption) *SampleIter {
	return &SampleIter{ctx: ctx, m: m, device: device, quantity: quantity, opts: applyOpts(opts)}
}

// Next returns the next sample, fetching the next page when the current
// one is exhausted. It reports false at the end of the range or on
// error (check Err).
func (it *SampleIter) Next() (measuredb.Point, bool) {
	for {
		if it.err != nil || it.done {
			return measuredb.Point{}, false
		}
		if it.page != nil && it.i < len(it.page.Samples) {
			p := it.page.Samples[it.i]
			it.i++
			return p, true
		}
		if it.page != nil && it.page.NextCursor == "" {
			it.done = true
			return measuredb.Point{}, false
		}
		// The first fetch honours a WithCursor resume point; later
		// fetches follow the server's cursors.
		o := it.opts
		if it.page != nil {
			o.cursor = it.page.NextCursor
		}
		page := new(measuredb.SamplesPage)
		if err := it.m.c.transport().GetJSON(it.ctx, it.m.seriesURL(it.device, it.quantity, "samples", o.values()), page); err != nil {
			it.err = err
			return measuredb.Point{}, false
		}
		it.page = page
		it.i = 0
		it.pages++
	}
}

// Err returns the error that stopped the iterator, if any.
func (it *SampleIter) Err() error { return it.err }

// Pages reports how many pages the iterator fetched so far.
func (it *SampleIter) Pages() int { return it.pages }

// SampleStream is a row-at-a-time NDJSON sample stream: the whole range
// crosses the wire without either end materializing it.
type SampleStream struct {
	body io.ReadCloser
	sc   *measuredb.RowScanner // nil once closed
	row  measuredb.Point       // Next's target: a local would escape, one allocation a row
	err  error
}

// Stream opens a streamed read of a series range. The default encoding
// is NDJSON, decoded row by row; Close when done.
func (m *Measurements) Stream(ctx context.Context, device, quantity string, opts ...QueryOption) (*SampleStream, error) {
	o := applyOpts(opts)
	v := o.values()
	if o.encoding != "" && o.encoding != "ndjson" {
		return nil, fmt.Errorf("client: streamed decode supports ndjson only, not %q (use Samples for JSON pages)", o.encoding)
	}
	u := m.seriesURL(device, quantity, "samples", v)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", measuredb.NDJSONType)
	// A caller-supplied client usually carries a whole-request Timeout,
	// which would amputate a long stream mid-read: reuse its transport
	// (pooling, TLS) but never its deadline — cancel via ctx instead.
	hc := api.StreamHTTPClient()
	if m.c.HTTP != nil {
		hc = &http.Client{Transport: m.c.HTTP.Transport, Jar: m.c.HTTP.Jar}
	}
	rsp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if rsp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(rsp.Body, 512))
		rsp.Body.Close()
		return nil, &api.StatusError{
			Method: http.MethodGet, URL: u,
			Status: rsp.StatusCode, Body: strings.TrimSpace(string(body)),
		}
	}
	return &SampleStream{body: rsp.Body, sc: measuredb.NewRowScanner(rsp.Body)}, nil
}

// Next decodes the next row. It reports false at the end of the stream
// or on error (check Err): a stream the server aborted mid-way ends in
// an error, never as a short clean read.
//
// districtlint:hotpath
func (s *SampleStream) Next() (measuredb.Point, bool) {
	if s.err != nil || s.sc == nil {
		return measuredb.Point{}, false
	}
	if err := s.sc.Next(&s.row); err != nil {
		if err != io.EOF {
			s.err = err
		}
		return measuredb.Point{}, false
	}
	return s.row, true
}

// Err returns the error that stopped the stream, if any.
func (s *SampleStream) Err() error { return s.err }

// Close releases the underlying connection.
func (s *SampleStream) Close() error {
	if s.sc != nil {
		s.sc.Release()
		s.sc = nil
	}
	return s.body.Close()
}
