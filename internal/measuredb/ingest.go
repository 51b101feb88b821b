package measuredb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// The /v2 ingest data plane: the write half of the resource-oriented
// API.
//
//	POST /v2/ingest                                  batched JSON or NDJSON rows
//	PUT  /v2/series/{device}/{quantity}/samples      single-series append
//
// Both routes report per-row outcomes: a row that fails validation (or
// lands on a closed store) is counted and located in the summary
// envelope instead of failing the request. NDJSON bodies are decoded
// row at a time and applied in bounded chunks, so a request is O(chunk)
// in server memory however many rows it carries. An optional
// Idempotency-Key header deduplicates retries inside a sliding window.

// maxIngestBody bounds ingest (and batch query) request bodies.
const maxIngestBody = 64 << 20

// ingestChunk is how many staged rows are applied per engine batch.
const ingestChunk = 512

// maxIngestErrors caps the per-row error list in a summary envelope;
// further failures only count (ErrorsTruncated marks the cut).
const maxIngestErrors = 64

// IngestBatch is the JSON body of POST /v2/ingest.
type IngestBatch struct {
	Rows []Point `json:"rows"`
}

// SeriesAppend is the JSON body of PUT /v2/series/{device}/{quantity}/samples.
// Sample rows carry at/value only; the series is named by the path.
type SeriesAppend struct {
	Samples []Point `json:"samples"`
}

// RowError locates one rejected row by its 0-based position in the
// request body.
type RowError struct {
	Row   int    `json:"row"`
	Error string `json:"error"`
}

// IngestResult is the summary envelope of the ingest plane.
type IngestResult struct {
	Accepted int        `json:"accepted"`
	Rejected int        `json:"rejected"`
	Errors   []RowError `json:"errors,omitempty"`
	// ErrorsTruncated reports that more rows failed than Errors lists.
	ErrorsTruncated bool `json:"errors_truncated,omitempty"`
	// Replayed marks an idempotent replay: the rows were NOT re-applied,
	// this is the stored outcome of the first delivery.
	Replayed bool `json:"replayed,omitempty"`
}

// ---------------------------------------------------------------------
// Idempotency window
// ---------------------------------------------------------------------

// idempotencyWindow is how long ingest results are replayable.
const idempotencyWindow = 10 * time.Minute

// claimTTL is how long an unfinished claim may block retries before a
// retry takes it over (see begin).
const claimTTL = time.Minute

// maxDedupEntries bounds the window's memory under hostile keys.
const maxDedupEntries = 4096

// dedupWindow remembers recent ingest outcomes by Idempotency-Key, so a
// client retrying a timed-out request (the shared transport replays
// bodies on retry) does not double-append its rows. A key is claimed
// BEFORE its rows are applied: a retry arriving while the first
// delivery is still in flight waits for it and replays its outcome —
// the in-flight window is exactly when timed-out retries land. A claim
// older than claimTTL whose owner never settled (a client that died
// mid-request holding the connection open) is handed over to the next
// retry instead of parking it forever.
//
// With a log attached (openLog), finished outcomes are also journaled,
// so a batch acked before a crash replays after the restart instead of
// double-appending. The log is the window: boot replays it, and it is
// trimmed below the oldest outcome the window still remembers, as the
// stream hub trims its ring. Claims are not journaled: a crash
// mid-delivery leaves no outcome, and the retry re-executes against
// whatever prefix of the batch the tsdb WAL preserved.
type dedupWindow struct {
	// jmu serializes journal appends, trims and close, so a trim never
	// sees a journaled outcome without its seq. Lock order: jmu, then mu.
	jmu sync.Mutex
	log *wal.Log // nil: memory-only; guarded by jmu

	// mu serializes the window map; every keyed request takes it, so
	// journal IO must stay outside.
	mu      sync.Mutex // districtlint:lockio
	entries map[string]*dedupEntry
	queue   []dedupRef // FIFO of insertions for TTL/cap eviction
	now     func() time.Time

	persistErrs atomic.Uint64 // outcomes finalized in memory but not journaled
}

type dedupEntry struct {
	key    string
	res    IngestResult
	at     time.Time
	seq    uint64        // journal record of res (0: not journaled)
	done   chan struct{} // closed when res is final
	ok     bool          // res is valid (false: delivery abandoned)
	stolen bool          // claim handed to a newer request (see begin)
}

type dedupRef struct {
	key string
	at  time.Time
}

// dedupRecord is the persisted form of one finished outcome.
type dedupRecord struct {
	Key string       `json:"key"`
	At  time.Time    `json:"at"`
	Res IngestResult `json:"res"`
}

// newDedupWindow builds an empty, memory-only window.
func newDedupWindow() *dedupWindow {
	return &dedupWindow{entries: make(map[string]*dedupEntry), now: time.Now}
}

// closedChan is the pre-closed done channel of reloaded entries.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// openLog attaches the journal in dir and replays it: every still-fresh
// outcome comes back with its record's seq.
func (d *dedupWindow) openLog(dir string, mode wal.Mode) error {
	log, err := wal.Open(dir, wal.Options{Fsync: mode, SegmentBytes: 1 << 20})
	if err != nil {
		return err
	}
	if err := rejournalSnapshot(dir, log); err != nil {
		return errors.Join(err, log.Close())
	}
	err = log.Replay(0, func(seq uint64, p []byte) error {
		var r dedupRecord
		if json.Unmarshal(p, &r) != nil || d.now().Sub(r.At) >= idempotencyWindow {
			return nil // unreadable or expired outcome: drop it, keep the rest
		}
		// An upgraded window journals some outcomes twice: one ref each.
		if e := d.entries[r.Key]; e == nil || !e.at.Equal(r.At) {
			d.queue = append(d.queue, dedupRef{key: r.Key, at: r.At})
		}
		d.entries[r.Key] = &dedupEntry{key: r.Key, res: r.Res, at: r.At, seq: seq, done: closedChan, ok: true}
		return nil
	})
	if err != nil {
		return errors.Join(err, log.Close())
	}
	// Records are in store order; eviction wants claim order. The cap
	// applies from the first claim on, so a reopen keeps every
	// remembered outcome even where the log still holds evicted ones.
	slices.SortStableFunc(d.queue, func(a, b dedupRef) int { return a.at.Compare(b.at) })
	d.log = log
	return nil
}

// rejournalSnapshot upgrades a window written by the older layout,
// whose boot compaction left live outcomes in a snapshot alone: they
// are appended to the log and synced before the snapshot files go.
func rejournalSnapshot(dir string, log *wal.Log) error {
	snapSeq, sr, err := wal.LatestSnapshot(dir)
	if sr == nil {
		return err
	}
	for p, err := sr.Record(); !errors.Is(err, io.EOF); p, err = sr.Record() {
		if err == nil {
			_, err = log.Append(p)
		}
		if err != nil {
			return errors.Join(err, sr.Close())
		}
	}
	_ = sr.Close() //lint:ignore closecheck read-only snapshot already decoded to EOF; close error cannot lose data
	if err := log.Sync(); err != nil {
		return err
	}
	wal.RemoveSnapshotsBefore(dir, snapSeq+1)
	return nil
}

// trim drops the journal segments below the oldest outcome the window
// still remembers; store runs it under jmu at every maxDedupEntries-th
// record, so every journaled outcome carries its seq.
func (d *dedupWindow) trim() {
	floor := d.log.LastSeq() + 1
	d.mu.Lock()
	d.pruneLocked()
	for _, e := range d.entries {
		if e.ok && e.seq < floor {
			floor = e.seq
		}
	}
	d.mu.Unlock()
	_ = d.log.TruncateBefore(floor)
}

// size reports how many keys the window currently remembers.
func (d *dedupWindow) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// persistErrors reports outcomes finalized in memory but lost to the
// journal; non-zero means acked keyed batches stopped being
// crash-replayable at some point.
func (d *dedupWindow) persistErrors() uint64 { return d.persistErrs.Load() }

// close releases the journal. It waits out an in-flight append, and
// the close error is returned: it is the last word on whether the
// journaled outcomes reached disk.
func (d *dedupWindow) close() error {
	d.jmu.Lock()
	defer d.jmu.Unlock()
	log := d.log
	d.log = nil
	if log == nil {
		return nil
	}
	return log.Close()
}

// pruneLocked drops expired entries and enforces the cap. The cap never
// evicts an in-flight claim — its ref goes to the back of the queue,
// and a retry of it keeps waiting — but the TTL drops it like any
// other: a delivery outliving the whole window has no retry left to
// protect. One sweep visits each ref at most once.
func (d *dedupWindow) pruneLocked() {
	now := d.now()
	for n := len(d.queue); n > 0; n-- {
		ref := d.queue[0]
		expired := now.Sub(ref.at) >= idempotencyWindow
		if !expired && len(d.queue) <= maxDedupEntries {
			break
		}
		d.queue = d.queue[1:]
		// A re-used key may have a fresher entry; only forget the one
		// this ref inserted.
		if e, ok := d.entries[ref.key]; ok && e.at.Equal(ref.at) {
			if !expired && !e.ok {
				d.queue = append(d.queue, ref)
			} else {
				delete(d.entries, ref.key)
			}
		}
	}
}

// dedupToken is one request's claim on an idempotency key; exactly one
// of store or abandon must be called once the request settles.
type dedupToken struct {
	d *dedupWindow
	e *dedupEntry
}

// store finalizes the claimed delivery: waiting and future retries
// replay res, and with a journal attached the outcome is appended
// (under the log's fsync policy) before it becomes replayable or the
// caller can respond — an acked keyed batch replays after a crash
// instead of double-appending. The append (an fsync, in always mode)
// runs under jmu, OUTSIDE the window's mutex: only same-key waiters
// block on it, not every other key's begin(). A claim that was taken
// over (claimTTL) discards its late outcome: the stealer owns the key.
func (t *dedupToken) store(res IngestResult) {
	if t == nil {
		return
	}
	d, e := t.d, t.e
	d.jmu.Lock()
	defer d.jmu.Unlock()
	d.mu.Lock()
	stolen := e.stolen
	d.mu.Unlock()
	if stolen {
		return
	}
	var seq uint64
	if d.log != nil {
		p, err := json.Marshal(dedupRecord{Key: e.key, At: e.at, Res: res})
		if err == nil {
			seq, err = d.log.Append(p)
		}
		if err != nil {
			// The log is sticky-failed: detach it and count the loss, so
			// the degradation (acked outcomes no longer crash-replayable)
			// is visible in the stats instead of silent.
			d.persistErrs.Add(1)
			_ = d.log.Close() //lint:ignore closecheck log already sticky-failed; Close error carries no new information
			d.log = nil
		}
	}

	d.mu.Lock()
	if e.stolen { // taken over while journaling; the stealer owns done now
		d.mu.Unlock()
		return
	}
	e.res, e.seq, e.ok = res, seq, true
	close(e.done)
	d.mu.Unlock()
	if seq != 0 && seq%maxDedupEntries == 0 {
		d.trim()
	}
}

// abandon releases the claim without an outcome (the request failed
// before applying rows); a retry re-executes from scratch.
func (t *dedupToken) abandon() {
	if t == nil || t.e == nil {
		return
	}
	t.d.mu.Lock()
	e := t.e
	if !e.ok && !e.stolen {
		if cur := t.d.entries[e.key]; cur == e {
			delete(t.d.entries, e.key)
		}
		close(e.done)
	}
	t.d.mu.Unlock()
	t.e = nil
}

// begin claims key for this request. It returns, exclusively:
// a non-nil token (the caller owns the delivery and must store or
// abandon), a non-nil result (a finished delivery to replay), or an
// error (the context ended while waiting on an in-flight delivery).
// An empty key returns all nils: no idempotency.
//
// An in-flight claim older than claimTTL is treated as abandoned by a
// dead client and handed to the arriving retry: the old owner's late
// outcome (if it ever settles) is discarded, and any requests waiting
// on it wake up and line up behind the new claim.
func (d *dedupWindow) begin(ctx context.Context, key string) (*dedupToken, *IngestResult, error) {
	if key == "" {
		return nil, nil, nil
	}
	for {
		d.mu.Lock()
		d.pruneLocked()
		e := d.entries[key]
		if e == nil {
			e = &dedupEntry{key: key, at: d.now(), done: make(chan struct{})}
			d.entries[key] = e
			d.queue = append(d.queue, dedupRef{key: key, at: e.at})
			d.mu.Unlock()
			return &dedupToken{d: d, e: e}, nil, nil
		}
		if e.ok {
			res := e.res
			res.Replayed = true
			d.mu.Unlock()
			return nil, &res, nil
		}
		if d.now().Sub(e.at) >= claimTTL {
			e.stolen = true
			close(e.done) // waiters re-examine and find the fresh claim
			fresh := &dedupEntry{key: key, at: d.now(), done: make(chan struct{})}
			d.entries[key] = fresh
			d.queue = append(d.queue, dedupRef{key: key, at: fresh.at})
			d.mu.Unlock()
			return &dedupToken{d: d, e: fresh}, nil, nil
		}
		done := e.done
		d.mu.Unlock()
		select {
		case <-done: // finished, abandoned or stolen; re-examine
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// ---------------------------------------------------------------------
// Row staging
// ---------------------------------------------------------------------

// ingester stages the rows of one ingest request and applies them in
// bounded chunks through the engine's batched, shard-parallel append
// path. While the stream hub is live — an SSE subscriber is connected,
// or the last one left within the hub's resume window and may be
// reconnecting (re-checked per chunk, so one joining mid-backfill picks
// up from the next chunk) — each chunk's accepted rows are republished
// to the hub as one batch. A hub nobody listens to (and its bounded
// replay ring) is skipped: that keeps the ingest-dominated path free of
// per-row document encoding, at the documented cost that rows ingested
// while nobody has listened for a while are not resumable via
// Last-Event-ID.
type ingester struct {
	s   *Service
	res IngestResult

	rows []tsdb.Row
	src  []int // global row index per staged row
	next int   // next global row index
	live liveChunk

	// stages receives the request's store-apply / wal-append /
	// hub-publish timings (nil outside a traced request; all uses are
	// guarded so the untraced path takes no timestamps).
	stages *obs.Stages
}

// ingesterPool recycles ingesters (and their chunk-sized staging
// slices) across requests; finish returns them.
var ingesterPool = sync.Pool{New: func() any { return new(ingester) }}

func (s *Service) newIngester(st *obs.Stages) *ingester {
	g := ingesterPool.Get().(*ingester)
	if g.rows == nil {
		g.rows = make([]tsdb.Row, 0, ingestChunk)
		g.src = make([]int, 0, ingestChunk)
	}
	g.s = s
	g.stages = st
	g.next = 0
	return g
}

// reject records one failed row: listed while the list is under
// maxIngestErrors, counted (ErrorsTruncated) after.
//
// districtlint:hotpath
func (res *IngestResult) reject(row int, msg string) {
	res.Rejected++
	if len(res.Errors) < maxIngestErrors {
		res.Errors = append(res.Errors, RowError{Row: row, Error: msg})
	} else {
		res.ErrorsTruncated = true
	}
}

// add validates and stages one self-contained row (device and quantity
// on the row itself).
//
// districtlint:hotpath
func (g *ingester) add(p Point) {
	row := g.next
	g.next++
	if p.Device == "" {
		g.res.reject(row, "missing device")
		return
	}
	if p.Quantity == "" {
		g.res.reject(row, "missing quantity")
		return
	}
	g.stage(row, tsdb.SeriesKey{Device: p.Device, Quantity: p.Quantity}, p)
}

// addTo validates and stages one row of a path-named series.
//
// districtlint:hotpath
func (g *ingester) addTo(key tsdb.SeriesKey, p Point) {
	row := g.next
	g.next++
	g.stage(row, key, p)
}

// stage applies the shared value/time validation and queues the row.
//
// districtlint:hotpath
func (g *ingester) stage(row int, key tsdb.SeriesKey, p Point) {
	if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
		g.res.reject(row, "non-finite value")
		return
	}
	at := p.At
	if at.IsZero() {
		at = time.Now().UTC()
	}
	g.rows = append(g.rows, tsdb.Row{Key: key, Sample: tsdb.Sample{At: at, Value: p.Value}})
	g.src = append(g.src, row)
	if len(g.rows) >= ingestChunk {
		g.flush()
	}
}

// flush applies the staged chunk and folds per-row outcomes into the
// summary. On the sharded engine the stage collector rides into the
// shard workers, which attribute the WAL and store waits themselves;
// other engines get a single store-apply timing around the batch call.
//
// districtlint:hotpath
func (g *ingester) flush() {
	if len(g.rows) == 0 {
		return
	}
	var errs []error
	if sh, ok := g.s.store.(*tsdb.Sharded); ok {
		errs = sh.AppendBatchStages(g.rows, g.stages)
	} else {
		var start time.Time
		if g.stages != nil {
			start = time.Now()
		}
		errs = g.s.store.AppendBatch(g.rows)
		if g.stages != nil {
			g.stages.Observe("store-apply", time.Since(start))
		}
	}
	hub := g.s.streamS.Hub()
	live := hub.Live()
	var pubStart time.Time
	if live {
		if g.stages != nil {
			pubStart = time.Now()
		}
		g.live.begin(g.rows, g.s.srv.Addr())
	}
	for i := range g.rows {
		if errs != nil && errs[i] != nil {
			g.res.reject(g.src[i], errs[i].Error())
			continue
		}
		g.res.Accepted++
		if live {
			g.live.add(&g.rows[i])
		}
	}
	if live {
		// The rows are stored and acked whatever the hub says; events it
		// refuses are counted there (repro_stream_publish_errors_total).
		_, _ = hub.PublishBatch(g.live.events())
		g.live.reset()
		if g.stages != nil {
			g.stages.Observe("hub-publish", time.Since(pubStart))
		}
	}
	g.rows = g.rows[:0]
	g.src = g.src[:0]
}

// finish applies any staged tail and returns the summary, recycling
// the ingester: it must not be touched afterwards. The result's error
// slice escapes to the caller, so res is detached rather than reused.
func (g *ingester) finish() IngestResult {
	g.flush()
	g.s.ingested.Add(uint64(g.res.Accepted))
	g.s.rejected.Add(uint64(g.res.Rejected))
	res := g.res
	g.res = IngestResult{}
	g.s = nil
	g.stages = nil
	ingesterPool.Put(g)
	return res
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

// claimIdempotency claims the request's Idempotency-Key. When the key
// already has an outcome (finished, or finishing while we wait), it is
// replayed and handled=true is returned; otherwise the caller owns the
// delivery and must tok.store (success) or tok.abandon (early failure)
// — tok is nil when the request carries no key.
func (s *Service) claimIdempotency(w http.ResponseWriter, r *http.Request) (tok *dedupToken, handled bool) {
	key := r.Header.Get("Idempotency-Key")
	var start time.Time
	if key != "" {
		start = time.Now()
	}
	tok, res, err := s.dedup.begin(r.Context(), key)
	if key != "" {
		d := time.Since(start)
		s.dedupClaim.ObserveDuration(d)
		obs.StagesFrom(r.Context()).Observe("dedup-claim", d)
	}
	if err != nil {
		api.WriteError(w, r, api.WithStatus(http.StatusServiceUnavailable,
			fmt.Errorf("waiting on in-flight idempotent delivery: %v", err)))
		return nil, true
	}
	if res != nil {
		w.Header().Set("Idempotent-Replay", "true")
		api.WriteJSON(w, http.StatusOK, *res)
		return nil, true
	}
	return tok, false
}

// decodeIngest is the one reader of POST /v2/ingest bodies, on node,
// clustered node and coordinator alike: a batched JSON body
// ({"rows":[...]}) by default, or a row-at-a-time NDJSON stream when the
// request body is application/x-ndjson or says encoding=ndjson (curl's
// default form content type decodes as JSON). The body is bounded by
// maxIngestBody and every decoded row is handed to add in body order.
//
// A JSON batch fails whole: err (bad encoding, undecodable body, empty
// rows) means add was never called. An NDJSON stream does not: its
// first malformed line poisons the rest, so reading stops there, the
// rows before it stand, and malformed is the message the caller rejects
// at the next row index.
func decodeIngest(w http.ResponseWriter, r *http.Request, add func(Point)) (malformed string, err error) {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	ndjson := strings.TrimSpace(ct) == NDJSONType
	switch enc := r.URL.Query().Get("encoding"); enc {
	case "":
	case "json":
		ndjson = false
	case "ndjson":
		ndjson = true
	default:
		return "", api.BadRequest(fmt.Errorf("bad encoding %q (want json or ndjson)", enc))
	}
	sc := NewRowScanner(http.MaxBytesReader(w, r.Body, maxIngestBody))
	defer sc.Release()
	if ndjson {
		var p Point
		for {
			if err := sc.Next(&p); err != nil {
				if !errors.Is(err, io.EOF) {
					malformed = "malformed row: " + err.Error()
				}
				return malformed, nil
			}
			add(p)
		}
	}
	pts, err := sc.decodeBatch("rows")
	if err != nil {
		return "", api.BadRequest(fmt.Errorf("bad request body: %v", err))
	}
	if len(pts) == 0 {
		return "", api.BadRequest(errors.New("empty rows"))
	}
	for i := range pts {
		add(pts[i])
	}
	return "", nil
}

// v2Ingest serves POST /v2/ingest. Rows are applied in bounded chunks
// through the sharded engine as they are decoded; the response is a
// per-row summary envelope.
func (s *Service) v2Ingest(w http.ResponseWriter, r *http.Request) {
	tok, handled := s.claimIdempotency(w, r)
	if handled {
		return
	}
	defer tok.abandon() // no-op once the outcome is stored
	if s.cnode != nil {
		s.clusterIngest(w, r, tok)
		return
	}
	g := s.newIngester(obs.StagesFrom(r.Context()))
	malformed, err := decodeIngest(w, r, g.add)
	if malformed != "" {
		g.res.reject(g.next, malformed)
	}
	res := g.finish()
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	tok.store(res)
	api.WriteJSON(w, http.StatusOK, res)
}

// v2PutSamples serves PUT /v2/series/{device}/{quantity}/samples: an
// append to one path-named series, with the same summary envelope and
// idempotency window as POST /v2/ingest.
func (s *Service) v2PutSamples(w http.ResponseWriter, r *http.Request) {
	p := api.ParamsOf(r)
	key := tsdb.SeriesKey{Device: p.Get("device"), Quantity: p.Get("quantity")}
	if key.Device == "" || key.Quantity == "" {
		api.WriteError(w, r, api.BadRequest(errors.New("missing device or quantity path segment")))
		return
	}
	tok, handled := s.claimIdempotency(w, r)
	if handled {
		return
	}
	defer tok.abandon() // no-op once the outcome is stored
	sc := NewRowScanner(http.MaxBytesReader(w, r.Body, maxIngestBody))
	defer sc.Release()
	samples, err := sc.decodeBatch("samples")
	if err != nil {
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad request body: %v", err)))
		return
	}
	if len(samples) == 0 {
		api.WriteError(w, r, api.BadRequest(errors.New("empty samples")))
		return
	}
	if s.cnode != nil {
		s.cnode.gate.RLock()
		defer s.cnode.gate.RUnlock()
		if !s.clusterAdmitKey(w, r, key.Device) {
			return
		}
	}
	g := s.newIngester(obs.StagesFrom(r.Context()))
	for _, smp := range samples {
		g.addTo(key, smp)
	}
	res := g.finish()
	tok.store(res)
	api.WriteJSON(w, http.StatusOK, res)
}
