package measuredb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
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

// dedupCompactEvery rewrites the persisted window (snapshot + log
// truncation) after this many appended outcome records.
const dedupCompactEvery = 4 * maxDedupEntries

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
// With a log attached (openLog), finished outcomes are also persisted,
// so a batch acked before a crash replays after the restart instead of
// double-appending. Claims are not persisted: a crash mid-delivery
// leaves no outcome, and the retry re-executes against whatever prefix
// of the batch the tsdb WAL preserved.
type dedupWindow struct {
	// mu serializes the window map; every keyed request takes it, so
	// journal IO must stay outside (see store and compact).
	mu      sync.Mutex // districtlint:lockio
	entries map[string]*dedupEntry
	queue   []dedupRef // FIFO of insertions for TTL/cap eviction
	now     func() time.Time

	log         *wal.Log // nil: memory-only
	dir         string
	appended    int
	persistErrs uint64 // outcomes finalized in memory but not journaled
}

type dedupEntry struct {
	key     string
	res     IngestResult
	at      time.Time
	done    chan struct{} // closed when res is final
	ok      bool          // res is valid (false: delivery abandoned)
	pending bool          // res set, journal append in flight (see store)
	stolen  bool          // claim handed to a newer request (see begin)
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

// openLog attaches persistence: reload still-fresh outcomes from the
// snapshot and log in dir, then compact them into a fresh snapshot so
// boot cost stays proportional to the live window, not ingest history.
func (d *dedupWindow) openLog(dir string, mode wal.Mode) error {
	insert := func(p []byte) error {
		var r dedupRecord
		if err := json.Unmarshal(p, &r); err != nil {
			return nil // unreadable outcome: drop it, keep the rest
		}
		if d.now().Sub(r.At) >= idempotencyWindow {
			return nil
		}
		d.entries[r.Key] = &dedupEntry{key: r.Key, res: r.Res, at: r.At, done: closedChan, ok: true}
		d.queue = append(d.queue, dedupRef{key: r.Key, at: r.At})
		return nil
	}
	snapSeq, sr, err := wal.LatestSnapshot(dir)
	if err != nil {
		return err
	}
	if sr != nil {
		for {
			p, err := sr.Record()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return errors.Join(err, sr.Close())
			}
			_ = insert(p)
		}
		// The snapshot was read to EOF; a close error on the read-only
		// file cannot invalidate what was decoded.
		_ = sr.Close() //lint:ignore closecheck read-only snapshot already decoded to EOF; close error cannot lose data
	}
	log, err := wal.Open(dir, wal.Options{Fsync: mode, SegmentBytes: 1 << 20})
	if err != nil {
		return err
	}
	if err := log.Replay(snapSeq, func(_ uint64, p []byte) error { return insert(p) }); err != nil {
		return errors.Join(err, log.Close())
	}
	d.log = log
	d.dir = dir
	d.compact()
	return nil
}

// compact snapshots the live outcomes at the log watermark and
// truncates the segments below it. The window's mutex is held only to
// copy the live set — the snapshot write (file IO, two fsyncs) runs
// outside it, so keyed requests never queue behind a compaction.
// Outcomes journaled while the snapshot is being written sit above the
// captured watermark and survive the truncation.
func (d *dedupWindow) compact() {
	d.mu.Lock()
	log := d.log
	if log == nil {
		d.mu.Unlock()
		return
	}
	d.pruneLocked()
	seq := log.LastSeq()
	recs := make([][]byte, 0, len(d.entries))
	for _, ref := range d.queue {
		e := d.entries[ref.key]
		if e == nil || !(e.ok || e.pending) || !e.at.Equal(ref.at) {
			continue
		}
		if p, err := json.Marshal(dedupRecord{Key: e.key, At: e.at, Res: e.res}); err == nil {
			recs = append(recs, p)
		}
	}
	dir := d.dir
	d.mu.Unlock()

	err := wal.WriteSnapshot(dir, seq, func(sw *wal.SnapshotWriter) error {
		for _, p := range recs {
			if err := sw.Record(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return // log intact; retried a full cadence later
	}
	_ = log.TruncateBefore(seq + 1)
	wal.RemoveSnapshotsBefore(dir, seq)
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
func (d *dedupWindow) persistErrors() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.persistErrs
}

// close releases the persistence log. The log is detached under the
// window mutex and closed outside it — the close may flush — and the
// close error is returned: it is the last word on whether the journaled
// outcomes reached disk.
func (d *dedupWindow) close() error {
	d.mu.Lock()
	log := d.log
	d.log = nil
	d.mu.Unlock()
	if log == nil {
		return nil
	}
	return log.Close()
}

// pruneLocked drops expired entries and enforces the cap. In-flight
// entries survive the cap sweep (they are completed or abandoned by
// their request) but fall to TTL like any other — a delivery outliving
// the whole window has no retry left to protect.
func (d *dedupWindow) pruneLocked() {
	now := d.now()
	for len(d.queue) > 0 {
		ref := d.queue[0]
		if now.Sub(ref.at) < idempotencyWindow && len(d.queue) <= maxDedupEntries {
			break
		}
		d.queue = d.queue[1:]
		// A re-used key may have a fresher entry; only forget the one
		// this ref inserted.
		if e, ok := d.entries[ref.key]; ok && e.at.Equal(ref.at) {
			delete(d.entries, ref.key)
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
// replay res, and with persistence attached the outcome is journaled
// (under the log's fsync policy) before it becomes replayable or the
// caller can respond — an acked keyed batch replays after a crash
// instead of double-appending. The journal append (an fsync, in always
// mode) runs OUTSIDE the window's mutex: only same-key waiters block on
// it (done is still open), not every other key's begin(). A claim that
// was taken over (claimTTL) discards its late outcome: the stealer
// owns the key now.
func (t *dedupToken) store(res IngestResult) {
	if t == nil {
		return
	}
	d, e := t.d, t.e
	d.mu.Lock()
	if e.stolen {
		d.mu.Unlock()
		return
	}
	e.res = res
	// pending makes the outcome visible to a concurrent compaction: its
	// journal record may land just below the snapshot watermark and be
	// truncated with the segments, so the snapshot must carry it.
	e.pending = true
	log := d.log
	d.mu.Unlock()

	journaled := false
	if log != nil {
		p, err := json.Marshal(dedupRecord{Key: e.key, At: e.at, Res: res})
		if err == nil {
			_, err = log.Append(p)
		}
		if err != nil {
			// The log is sticky-failed: detach it and count the loss, so
			// the degradation (acked outcomes no longer crash-replayable)
			// is visible in the stats instead of silent. The close runs
			// outside the window mutex, after the detach.
			var dead *wal.Log
			d.mu.Lock()
			d.persistErrs++
			if d.log == log {
				dead = d.log
				d.log = nil
			}
			d.mu.Unlock()
			if dead != nil {
				_ = dead.Close() //lint:ignore closecheck log already sticky-failed; Close error carries no new information
			}
		} else {
			journaled = true
		}
	}

	compactDue := false
	d.mu.Lock()
	if e.stolen { // taken over while journaling; the stealer owns done now
		d.mu.Unlock()
		return
	}
	e.ok, e.pending = true, false
	close(e.done)
	if journaled {
		if d.appended++; d.appended >= dedupCompactEvery {
			d.appended = 0 // back off a full cadence, success or failure
			compactDue = true
		}
	}
	d.mu.Unlock()
	if compactDue {
		d.compact()
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
