package measuredb

import (
	"bytes"
	"cmp"
	"context"
	"encoding/base64"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/qcache"
	"repro/internal/tsdb"
)

// The /v2 query data plane: resource-oriented routes over the
// measurements store, following the batch/pagination conventions of
// mainstream time-series APIs instead of one-series-per-request query
// params.
//
//	GET  /v2/series                                      series catalog (globs, paginated)
//	GET  /v2/series/{device}/{quantity}/samples          samples (cursor pages; JSON/NDJSON/CSV)
//	GET  /v2/series/{device}/{quantity}/latest           freshest sample
//	GET  /v2/series/{device}/{quantity}/aggregate        summary or windowed buckets
//	POST /v2/query                                       batch multi-series read
//
// Device URIs contain "/", so the {device} path parameter travels
// percent-encoded (api.PathSegment). Cursors are opaque: clients echo
// next_cursor back verbatim. POST /v2/query is one handler body on node
// and coordinator (serveBatch), written by encode.go's batch writers.

// Streamable media types of the samples route. JSON stays the default;
// NDJSON and CSV are written row-at-a-time, so a response is O(1) in
// server memory however large the range is.
const (
	NDJSONType = "application/x-ndjson"
	CSVType    = "text/csv"
)

// v2 pagination and batch bounds (exported for clients sizing requests).
const (
	MaxPageLimit      = 10000
	MaxBatchSelectors = 1024
)

// Point is one sample on the /v2 wire. Device and Quantity are set on
// self-contained rows (NDJSON/CSV, batch results) and omitted inside a
// SamplesPage, whose envelope already names the series.
type Point struct {
	Device   string    `json:"device,omitempty"`
	Quantity string    `json:"quantity,omitempty"`
	At       time.Time `json:"at"`
	Value    float64   `json:"value"`
}

// SamplesPage is the JSON body of GET /v2/.../samples: one bounded page
// plus the opaque cursor resuming after it.
type SamplesPage struct {
	Device     string  `json:"device"`
	Quantity   string  `json:"quantity"`
	Samples    []Point `json:"samples"`
	Count      int     `json:"count"`
	NextCursor string  `json:"next_cursor,omitempty"`
}

// SeriesPage is the JSON body of GET /v2/series.
type SeriesPage struct {
	Series     []SeriesInfo `json:"series"`
	Count      int          `json:"count"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// SeriesSelector names the series a batch query entry reads: an exact
// device URI or a glob ('*' matches any run of characters), and an
// exact/glob quantity (empty selects every quantity of the device).
type SeriesSelector struct {
	Device   string `json:"device"`
	Quantity string `json:"quantity,omitempty"`
}

// BatchQuery is the POST /v2/query body: many selectors evaluated in
// one request over a shared time range, optionally pushing aggregation
// or windowed downsampling into the store instead of shipping raw rows.
type BatchQuery struct {
	Selectors []SeriesSelector `json:"selectors"`
	From      time.Time        `json:"from,omitempty"`
	To        time.Time        `json:"to,omitempty"`
	// Limit caps raw samples per matched series (default DefaultPageLimit,
	// max MaxPageLimit); ignored when Aggregate or Window is set.
	Limit int `json:"limit,omitempty"`
	// Aggregate returns one summary per series instead of samples.
	Aggregate bool `json:"aggregate,omitempty"`
	// Window (a Go duration, e.g. "5m") returns downsampled buckets.
	Window string `json:"window,omitempty"`
	// Latest returns each matched series' freshest sample, whatever From,
	// To and Limit say; it cannot be combined with Aggregate or Window.
	Latest bool `json:"latest,omitempty"`
}

// BatchSeries is one matched series' result inside a batch response.
type BatchSeries struct {
	Device    string             `json:"device"`
	Quantity  string             `json:"quantity"`
	Samples   []Point            `json:"samples,omitempty"`
	Aggregate *AggregateResponse `json:"aggregate,omitempty"`
	Buckets   []tsdb.Bucket      `json:"buckets,omitempty"`
	// Truncated reports that the series holds more samples in range than
	// Limit allowed; page through /v2/.../samples to get the rest.
	Truncated bool `json:"truncated,omitempty"`
}

// BatchResult pairs one selector with what it matched. A selector that
// matches nothing reports an Error instead of failing the whole batch.
type BatchResult struct {
	Selector SeriesSelector `json:"selector"`
	Series   []BatchSeries  `json:"series,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// BatchResponse is the POST /v2/query reply: per-selector results in
// request order plus whole-batch totals.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Series  int           `json:"series"`
	Samples int           `json:"samples"`
}

// ---------------------------------------------------------------------
// Opaque cursors
// ---------------------------------------------------------------------

// encodeCursor renders a store cursor opaquely (base64url of
// "<unix-nanos>:<seen>").
func encodeCursor(c tsdb.Cursor) string {
	raw := strconv.FormatInt(c.After.UnixNano(), 10) + ":" + strconv.Itoa(c.Seen)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor parses an opaque cursor ("" is the start of the range).
func decodeCursor(s string) (tsdb.Cursor, error) {
	if s == "" {
		return tsdb.Cursor{}, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return tsdb.Cursor{}, fmt.Errorf("bad cursor: %v", err)
	}
	nanosStr, seenStr, ok := strings.Cut(string(raw), ":")
	if !ok {
		return tsdb.Cursor{}, errors.New("bad cursor: malformed payload")
	}
	nanos, err1 := strconv.ParseInt(nanosStr, 10, 64)
	seen, err2 := strconv.Atoi(seenStr)
	if err1 != nil || err2 != nil || seen < 0 {
		return tsdb.Cursor{}, errors.New("bad cursor: malformed payload")
	}
	return tsdb.Cursor{After: time.Unix(0, nanos).UTC(), Seen: seen}, nil
}

// encodeSeriesCursor marks a position in the sorted series catalog.
func encodeSeriesCursor(k tsdb.SeriesKey) string {
	return base64.RawURLEncoding.EncodeToString([]byte(k.Device + "\x00" + k.Quantity))
}

func decodeSeriesCursor(s string) (tsdb.SeriesKey, error) {
	if s == "" {
		return tsdb.SeriesKey{}, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return tsdb.SeriesKey{}, fmt.Errorf("bad cursor: %v", err)
	}
	device, quantity, ok := strings.Cut(string(raw), "\x00")
	if !ok {
		return tsdb.SeriesKey{}, errors.New("bad cursor: malformed payload")
	}
	return tsdb.SeriesKey{Device: device, Quantity: quantity}, nil
}

// ---------------------------------------------------------------------
// Selector resolution
// ---------------------------------------------------------------------

// globMatch reports whether s matches pattern, where '*' matches any
// run of characters (including separators — a district-wide selector is
// "urn:district:turin/*"). Iterative with backtracking, no allocation.
func globMatch(pattern, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		// The wildcard case must win over the literal one: a '*' in the
		// subject would otherwise consume the pattern's '*' as a literal
		// and lose the backtrack point.
		case pi < len(pattern) && pattern[pi] == '*':
			if pi == len(pattern)-1 {
				return true // a trailing '*' matches whatever is left
			}
			star, mark = pi, si
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			pi++
			si++
		case star >= 0:
			mark++
			pi, si = star+1, mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

func hasGlob(s string) bool { return strings.ContainsRune(s, '*') }

// ---------------------------------------------------------------------
// Route plumbing
// ---------------------------------------------------------------------

// mountV2 registers the /v2 data plane on the service's API server,
// wrapping the routes in their rate-limit tiers.
func (s *Service) mountV2(srv *api.Server, read, batch, write func(http.Handler) http.Handler) {
	srv.HandleV2(http.MethodGet, "/series", read(api.Query(s.v2Series)))
	srv.HandleV2(http.MethodGet, "/series/{device}/{quantity}/samples", read(http.HandlerFunc(s.v2Samples)))
	srv.HandleV2(http.MethodGet, "/series/{device}/{quantity}/latest", read(api.QueryP(s.v2Latest)))
	srv.HandleV2(http.MethodGet, "/series/{device}/{quantity}/aggregate", read(api.QueryP(s.v2Aggregate)))
	srv.HandleV2(http.MethodPost, "/query", batch(http.HandlerFunc(s.v2Query)))
	srv.HandleV2(http.MethodPost, "/ingest", write(http.HandlerFunc(s.v2Ingest)))
	srv.HandleV2(http.MethodPut, "/series/{device}/{quantity}/samples", write(http.HandlerFunc(s.v2Ingest)))
}

// pageLimit parses the limit query parameter with the shared bounds.
func pageLimit(q url.Values) (int, error) {
	raw := q.Get("limit")
	if raw == "" {
		return tsdb.DefaultPageLimit, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad limit %q", raw)
	}
	return min(n, MaxPageLimit), nil
}

// v2Series serves the paginated series catalog, optionally filtered by
// device/quantity globs.
func (s *Service) v2Series(ctx context.Context, q url.Values) (any, error) {
	limit, err := pageLimit(q)
	if err != nil {
		return nil, api.BadRequest(err)
	}
	after, err := decodeSeriesCursor(q.Get("cursor"))
	if err != nil {
		return nil, api.BadRequest(err)
	}
	return s.cachedAll(func(k *qcache.Key) {
		k.Str("series").Str(q.Get("device")).Str(q.Get("quantity")).
			Int(int64(limit)).Str(after.Device).Str(after.Quantity)
	}, func() (any, error) {
		keys := s.resolveSelector(SeriesSelector{Device: q.Get("device"), Quantity: q.Get("quantity")})
		if after != (tsdb.SeriesKey{}) {
			i := sort.Search(len(keys), func(i int) bool { return tsdb.CompareKeys(keys[i], after) > 0 })
			keys = keys[i:]
		}
		page := SeriesPage{Series: make([]SeriesInfo, 0, min(limit, len(keys)))}
		for _, k := range keys {
			if len(page.Series) == limit {
				page.NextCursor = encodeSeriesCursor(tsdb.SeriesKey{
					Device:   page.Series[limit-1].Device,
					Quantity: page.Series[limit-1].Quantity,
				})
				break
			}
			page.Series = append(page.Series, SeriesInfo{Device: k.Device, Quantity: k.Quantity, Samples: s.store.Len(k)})
		}
		page.Count = len(page.Series)
		return page, nil
	})
}

// samplesParams decodes the shared parameters of the per-series routes.
func samplesParams(p api.Params, q url.Values) (key tsdb.SeriesKey, from, to time.Time, err error) {
	key = tsdb.SeriesKey{Device: p.Get("device"), Quantity: p.Get("quantity")}
	if key.Device == "" || key.Quantity == "" {
		return key, from, to, api.BadRequest(errors.New("missing device or quantity path segment"))
	}
	if from, to, err = api.ParseRange(q); err != nil {
		return key, from, to, api.BadRequest(err)
	}
	return key, from, to, nil
}

// v2Samples serves one series range: a JSON cursor page by default, or
// a row-at-a-time NDJSON/CSV stream when the client asks for one (via
// Accept or the encoding query parameter).
func (s *Service) v2Samples(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key, from, to, err := samplesParams(api.ParamsOf(r), q)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	limit, err := pageLimit(q)
	if err != nil {
		api.WriteError(w, r, api.BadRequest(err))
		return
	}
	cur, err := decodeCursor(q.Get("cursor"))
	if err != nil {
		api.WriteError(w, r, api.BadRequest(err))
		return
	}

	mediaType := api.NegotiateMediaType(r.Header.Get("Accept"), "application/json", NDJSONType, CSVType)
	switch q.Get("encoding") {
	case "":
	case "json":
		mediaType = "application/json"
	case "ndjson":
		mediaType = NDJSONType
	case "csv":
		mediaType = CSVType
	default:
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad encoding %q (want json, ndjson, or csv)", q.Get("encoding"))))
		return
	}

	if mediaType == "application/json" || mediaType == "" {
		out, err := s.cachedDevice(key.Device, func(k *qcache.Key) {
			k.Str("samples").Str(key.Device).Str(key.Quantity).
				Int(from.UnixNano()).Int(to.UnixNano()).Int(int64(limit)).
				Int(cur.After.UnixNano()).Int(int64(cur.Seen))
		}, func() (any, error) {
			page, err := s.store.QueryPage(key, from, to, cur, limit)
			if err != nil {
				return nil, err
			}
			next := ""
			if page.More {
				next = encodeCursor(page.Next)
			}
			// ~45 bytes a sample; the response and cache entry, so not pooled.
			body := make([]byte, 0, 160+len(key.Device)+len(key.Quantity)+48*len(page.Samples))
			return api.RawJSON(appendSamplesPage(body, key, page.Samples, next)), nil
		})
		if err != nil {
			api.WriteError(w, r, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, out)
		return
	}

	// Streaming encodings ride the store's scanner: rows go out as they
	// are read, so the response never materializes the range. An
	// explicit limit still caps the stream; the default streams the
	// whole range.
	streamLimit := 0
	if q.Get("limit") != "" {
		streamLimit = limit
	}
	it := s.store.Scan(key, from, to, cur)
	defer it.Close() // a limit or a gone client ends the scan early
	s.streamSamples(w, r, key, it, mediaType, streamLimit)
}

// streamSamples writes iterator rows in the negotiated encoding,
// flushing periodically so slow consumers see progress. An iterator that
// fails after the first row aborts the connection.
func (s *Service) streamSamples(w http.ResponseWriter, r *http.Request, key tsdb.SeriesKey, it tsdb.Iterator, mediaType string, limit int) {
	// Surface a missing series as a proper envelope before committing
	// the streaming content type.
	first, ok := it.Next()
	if !ok {
		if err := it.Err(); err != nil {
			api.WriteError(w, r, err)
			return
		}
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", mediaType+"; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	var writeRow func(p Point) error
	var finish func()
	switch mediaType {
	case NDJSONType:
		buf := getRowBuf()
		defer putRowBuf(buf)
		writeRow = func(p Point) error {
			buf.b = append(AppendPoint(buf.b[:0], p), '\n')
			_, err := w.Write(buf.b)
			return err
		}
		finish = func() {}
	case CSVType:
		cw := csv.NewWriter(w)
		_ = cw.Write([]string{"device", "quantity", "at", "value"})
		var record [4]string
		writeRow = func(p Point) error {
			record[0], record[1] = p.Device, p.Quantity
			record[2] = p.At.UTC().Format(time.RFC3339Nano)
			record[3] = strconv.FormatFloat(p.Value, 'g', -1, 64)
			return cw.Write(record[:])
		}
		finish = func() { cw.Flush() }
	}

	rows := 0
	for smp, more := first, ok; more; smp, more = it.Next() {
		row := Point{Device: key.Device, Quantity: key.Quantity, At: smp.At, Value: smp.Value}
		if err := writeRow(row); err != nil {
			return // client went away
		}
		rows++
		if limit > 0 && rows >= limit {
			break
		}
		if rows%256 == 0 {
			finish()
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	finish()
	if flusher != nil {
		flusher.Flush()
	}
	if it.Err() != nil {
		// A later page failed (series dropped mid-read, a block that does not
		// verify) after the status line left: ending normally would pass a
		// cut body off as whole, so abort, as the coordinator's relay does.
		panic(http.ErrAbortHandler)
	}
}

// v2Latest serves the freshest sample of one series as a measurement
// document (content-negotiated like the v1 route).
func (s *Service) v2Latest(ctx context.Context, p api.Params, q url.Values) (any, error) {
	key := tsdb.SeriesKey{Device: p.Get("device"), Quantity: p.Get("quantity")}
	smp, err := s.store.Latest(key)
	if err != nil {
		return nil, api.NotFound(err)
	}
	ms := measurementsOf(key, []tsdb.Sample{smp}, s.srv.Addr())
	return dataformat.NewMeasurementDoc(ms[0]), nil
}

// v2Aggregate serves a range summary, or windowed buckets with window=.
// Responses flow through the generation-keyed result cache: repeated
// identical aggregates over a quiescent shard are served from cache,
// byte-identical to a fresh evaluation.
func (s *Service) v2Aggregate(ctx context.Context, p api.Params, q url.Values) (any, error) {
	key, from, to, err := samplesParams(p, q)
	if err != nil {
		return nil, err
	}
	ws := q.Get("window")
	var window time.Duration
	if ws != "" {
		if window, err = time.ParseDuration(ws); err != nil {
			return nil, api.BadRequest(fmt.Errorf("bad window: %v", err))
		}
	}
	return s.cachedDevice(key.Device, func(k *qcache.Key) {
		k.Str("agg").Str(key.Device).Str(key.Quantity).
			Int(from.UnixNano()).Int(to.UnixNano()).Str(ws)
	}, func() (any, error) {
		if ws != "" {
			buckets, err := s.store.Downsample(key, from, to, window)
			if err != nil {
				return nil, err
			}
			return buckets, nil
		}
		agg, err := s.store.Aggregate(key, from, to)
		if err != nil {
			return nil, err
		}
		return aggregateResponse(key, agg), nil
	})
}

// aggregateResponse renders a store aggregate on the wire.
func aggregateResponse(key tsdb.SeriesKey, agg tsdb.Aggregate) AggregateResponse {
	return AggregateResponse{
		Device: key.Device, Quantity: key.Quantity,
		Count: agg.Count, Min: agg.Min, Max: agg.Max, Mean: agg.Mean, Sum: agg.Sum,
	}
}

// batchPlan is a validated, normalized batch query.
type batchPlan struct {
	req    BatchQuery
	window time.Duration
	limit  int
}

// planBatch validates a batch request and normalizes its bounds.
func planBatch(req BatchQuery) (batchPlan, error) {
	if len(req.Selectors) == 0 {
		return batchPlan{}, api.BadRequest(errors.New("empty selector batch"))
	}
	if len(req.Selectors) > MaxBatchSelectors {
		return batchPlan{}, api.BadRequest(fmt.Errorf("%d selectors exceed the batch cap of %d", len(req.Selectors), MaxBatchSelectors))
	}
	if !req.To.IsZero() && req.To.Before(req.From) {
		return batchPlan{}, api.BadRequest(errors.New("to before from"))
	}
	if req.Latest && (req.Aggregate || req.Window != "") {
		return batchPlan{}, api.BadRequest(errors.New("latest cannot be combined with aggregate or window"))
	}
	plan := batchPlan{req: req, limit: min(req.Limit, MaxPageLimit)}
	if req.Limit <= 0 {
		plan.limit = tsdb.DefaultPageLimit
	}
	if req.Window != "" {
		var err error
		if plan.window, err = time.ParseDuration(req.Window); err != nil {
			return batchPlan{}, api.BadRequest(fmt.Errorf("bad window: %v", err))
		}
	}
	return plan, nil
}

// noMatch is the error of a selector that matches no series.
const noMatch = "no matching series"

// sampleCount is one series result's contribution to the batch totals.
func (bs *BatchSeries) sampleCount() int {
	switch {
	case bs.Aggregate != nil:
		return bs.Aggregate.Count
	case bs.Buckets != nil:
		n := 0
		for _, b := range bs.Buckets {
			n += b.Count
		}
		return n
	default:
		return len(bs.Samples)
	}
}

// serveBatch is POST /v2/query on the node and on the coordinator: the
// strict parse (trailing bytes are a 400), the plan, json or ndjson
// (Accept or encoding=), and the batch writer answer produces into.
// answer runs before any response byte is written: an error it returns
// is the response.
func serveBatch(w http.ResponseWriter, r *http.Request, answer func(plan batchPlan, body []byte, out batchWriter) error) {
	// The body is read whole (it is already bounded) so the raw bytes can
	// key the node's result cache: two textually identical batch requests
	// share one cache entry without re-normalizing the parsed form.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var req BatchQuery
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad request body: %v", err)))
		return
	}
	plan, err := planBatch(req)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	var ndjson bool
	switch enc := r.URL.Query().Get("encoding"); enc {
	case "":
		ndjson = api.NegotiateMediaType(r.Header.Get("Accept"), "application/json", NDJSONType) == NDJSONType
	case "json", "ndjson":
		ndjson = enc == "ndjson"
	default:
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad encoding %q (want json or ndjson)", enc)))
		return
	}
	if ndjson {
		out := newBatchNDJSON(w, len(req.Selectors))
		if err := answer(plan, body, out); err != nil {
			writeUpstream(w, r, err)
			return
		}
		out.close()
		return
	}
	out := newBatchJSON(len(req.Selectors))
	defer out.release()
	if err := answer(plan, body, out); err != nil || out.err != nil {
		writeUpstream(w, r, cmp.Or(err, out.err))
		return
	}
	api.WriteJSON(w, http.StatusOK, api.RawJSON(out.b))
}

// v2Query answers a batch from the local store. A JSON answer is cached
// whole, under the request's bytes; the cache keeps its own copy, as
// the writer's buffer is pooled.
func (s *Service) v2Query(w http.ResponseWriter, r *http.Request) {
	serveBatch(w, r, func(plan batchPlan, body []byte, out batchWriter) error {
		j, isJSON := out.(*batchJSON)
		if !isJSON || s.qc == nil {
			s.walkBatch(plan, out)
			return nil
		}
		doc, err := s.cachedAll(func(k *qcache.Key) { k.Str("query").Bytes(body) }, func() (any, error) {
			s.walkBatch(plan, j)
			return api.RawJSON(bytes.Clone(j.b)), j.err
		})
		if err == nil {
			j.b = append(j.b[:0], doc.(api.RawJSON)...)
		}
		return err
	})
}

// walkBatch answers a planned batch from the local store in one walk in
// request order: resolve each selector, read every key it matched —
// Downsample, Aggregate, Latest or one QueryPage(limit) — and hand the
// series to out at once, so at most one page is held. A failed read (a
// series dropped since it was resolved) is the selector's error.
func (s *Service) walkBatch(plan batchPlan, out batchWriter) {
	req := plan.req
	var bs BatchSeries
	var agg AggregateResponse
	var pts []Point // the page being handed over, reused
	for i, sel := range req.Selectors {
		out.selector(i, sel)
		keys := s.resolveSelector(sel)
		errMsg := ""
		if len(keys) == 0 {
			errMsg = noMatch
		}
		for _, key := range keys {
			bs = BatchSeries{Device: key.Device, Quantity: key.Quantity}
			var err error
			switch {
			case plan.window > 0:
				bs.Buckets, err = s.store.Downsample(key, req.From, req.To, plan.window)
			case req.Aggregate:
				var a tsdb.Aggregate
				if a, err = s.store.Aggregate(key, req.From, req.To); err == nil {
					agg = aggregateResponse(key, a)
					bs.Aggregate = &agg
				}
			case req.Latest:
				var smp tsdb.Sample
				if smp, err = s.store.Latest(key); err == nil {
					pts = append(pts[:0], Point{At: smp.At, Value: smp.Value})
					bs.Samples = pts
				}
			default:
				var page tsdb.Page
				if page, err = s.store.QueryPage(key, req.From, req.To, tsdb.Cursor{}, plan.limit); err == nil {
					pts = pts[:0]
					for _, smp := range page.Samples {
						pts = append(pts, Point{At: smp.At, Value: smp.Value})
					}
					bs.Samples, bs.Truncated = pts, page.More
				}
			}
			if err != nil {
				errMsg = err.Error()
				continue
			}
			out.series(&bs)
		}
		out.end(errMsg)
	}
}

// BatchRow is one line of an NDJSON-streamed batch response. Exactly one
// of the payload fields is set: At/Value for a raw sample, Aggregate or
// Bucket for pushed-down summaries, Truncated marking a series cut at
// the limit, or Error for a failed selector.
type BatchRow struct {
	Selector  int                `json:"selector"`
	Device    string             `json:"device,omitempty"`
	Quantity  string             `json:"quantity,omitempty"`
	At        *time.Time         `json:"at,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Truncated bool               `json:"truncated,omitempty"`
	Aggregate *AggregateResponse `json:"aggregate,omitempty"`
	Bucket    *tsdb.Bucket       `json:"bucket,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// BatchTrailer is the last line of an NDJSON-streamed batch response:
// the whole-batch totals the JSON envelope carries in its top level.
type BatchTrailer struct {
	Summary bool `json:"summary"`
	Series  int  `json:"series"`
	Samples int  `json:"samples"`
}
