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
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// The /v2 ingest data plane: the write half of the resource-oriented
// API.
//
//	POST /v2/ingest                                  batched JSON or NDJSON rows
//	PUT  /v2/series/{device}/{quantity}/samples      single-series append
//
// Both routes are one handler body (v2Ingest) and report per-row
// outcomes: a row that fails validation (or lands on a closed store) is
// counted and located in the summary envelope instead of failing the
// request. On a plain node NDJSON bodies are decoded row at a time and
// applied in bounded chunks, so a request is O(chunk) in server memory
// however many rows it carries. An optional Idempotency-Key header
// deduplicates retries inside a sliding window.

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
// retry instead of parking it forever; the retry resumes past the body
// rows the first delivery applied.
//
// On a durable engine the window lives in the node log (attach): every
// chunk a keyed delivery applies journals a note in its rows' record —
// the key, the claim time, the body rows done, and on the last chunk
// the outcome — so an outcome is durable exactly when its rows are.
// Boot rebuilds the window from the notes: a final note replays, and a
// partial one is resumed by the next retry of its key, which counts the
// body rows before the note's index without applying them and applies
// the rest. The window pins the log at the oldest delivery it
// remembers.
type dedupWindow struct {
	// mu serializes the window map; every keyed request takes it, so no
	// IO may happen under it.
	mu      sync.Mutex // districtlint:lockio
	entries map[string]*dedupEntry
	queue   []dedupRef // FIFO of insertions for TTL/cap eviction
	now     func() time.Time
	durable bool   // attached to a node log
	last    uint64 // the highest node-log seq the window has seen
}

type dedupEntry struct {
	key string
	res IngestResult
	at  time.Time
	// seq is the oldest node-log record the delivery may need: a bound
	// taken at the claim, then its latest note's record.
	seq    uint64
	next   int           // body rows the delivery has applied
	done   chan struct{} // closed when res is final
	ok     bool          // res is valid (false: delivery abandoned)
	stolen bool          // claim handed to a newer request (see begin)
	orphan bool          // a partial delivery recovered from the log: nobody owns it
}

type dedupRef struct {
	key string
	at  time.Time
}

// dedupNote is a keyed delivery's note in the node log, where a record
// carries a JSON array of them: Next is the body row its chunk ends at,
// and Res, set on the last chunk's note alone, the outcome. The older
// layout's idempotency log held finished outcomes in this shape.
type dedupNote struct {
	Key  string        `json:"key"`
	At   time.Time     `json:"at"`
	Next int           `json:"next,omitempty"`
	Res  *IngestResult `json:"res,omitempty"`
}

// newDedupWindow builds an empty, memory-only window.
func newDedupWindow() *dedupWindow {
	return &dedupWindow{entries: make(map[string]*dedupEntry), now: time.Now}
}

// attach moves the window into a durable engine's node log: it rebuilds
// from notes, in log order — the latest note of a delivery wins — and
// pins the log at the oldest delivery it remembers.
func (d *dedupWindow) attach(sh *tsdb.Sharded, notes []tsdb.Note) {
	for _, n := range notes {
		var dns []dedupNote
		_ = json.Unmarshal(n.Data, &dns) // an unreadable record drops its notes, not the rest
		d.last = max(d.last, n.Seq)
		for _, dn := range dns {
			if d.now().Sub(dn.At) >= idempotencyWindow {
				continue // expired: drop it, keep the rest
			}
			// A reloaded outcome is final: nothing waits on its done.
			e := &dedupEntry{key: dn.Key, at: dn.At, seq: n.Seq, next: dn.Next, ok: true}
			if dn.Res != nil {
				e.res = *dn.Res
			} else {
				e.done, e.ok, e.orphan = make(chan struct{}), false, true
			}
			if old := d.entries[dn.Key]; old == nil || !old.at.Equal(dn.At) {
				d.queue = append(d.queue, dedupRef{key: dn.Key, at: dn.At})
			}
			d.entries[dn.Key] = e
		}
	}
	// Records are in log order; eviction wants claim order.
	slices.SortStableFunc(d.queue, func(a, b dedupRef) int { return a.at.Compare(b.at) })
	d.durable = true
	sh.PinLog(d.oldest)
}

// oldest is the window's pin on the node log: the lowest seq a
// remembered delivery may need, past every seq when there is none.
func (d *dedupWindow) oldest() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneLocked()
	floor := uint64(math.MaxUint64)
	for _, e := range d.entries {
		floor = min(floor, e.seq)
	}
	return floor
}

// size reports how many keys the window currently remembers.
func (d *dedupWindow) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// pruneLocked drops expired entries and enforces the cap. The cap never
// evicts an unfinished delivery — its ref goes to the back of the
// queue, and a retry of it keeps waiting or resumes — but the TTL drops
// it like any other: a delivery outliving the whole window has no retry
// left to protect. One sweep visits each ref at most once.
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

// claimLocked makes a fresh claim on key, resuming past body row next.
// Every record the delivery writes is above any the window has seen.
func (d *dedupWindow) claimLocked(key string, next int) *dedupEntry {
	e := &dedupEntry{key: key, at: d.now(), seq: d.last + 1, next: next, done: make(chan struct{})}
	d.entries[key] = e
	d.queue = append(d.queue, dedupRef{key: key, at: e.at})
	return e
}

// dedupToken is one request's claim on an idempotency key; exactly one
// of store or abandon must be called once the request settles. from is
// the body rows an earlier delivery of the key applied.
type dedupToken struct {
	d    *dedupWindow
	e    *dedupEntry
	from int
}

// note is the node-log note of the delivery's chunk ending at body row
// next — with res, its last — or nil on a memory-only window or without
// a claim.
func (t *dedupToken) note(next int, res *IngestResult) []byte {
	if t == nil || !t.d.durable {
		return nil
	}
	p, _ := json.Marshal([]dedupNote{{Key: t.e.key, At: t.e.at, Next: next, Res: res}})
	return p
}

// applied records that the delivery's body rows before next are
// applied — journaled in record seq, when seq is not 0 — so a retry
// that takes the claim over resumes there.
func (t *dedupToken) applied(seq uint64, next int) {
	if t == nil {
		return
	}
	t.d.mu.Lock()
	t.e.next = next
	if seq != 0 {
		t.e.seq = seq
		t.d.last = max(t.d.last, seq)
	}
	t.d.mu.Unlock()
}

// store finalizes the claimed delivery: waiting and future retries
// replay res. On a durable engine the last chunk's note already carries
// res, so the outcome is as durable as its rows before the caller can
// respond. A claim that was taken over (claimTTL) discards its late
// outcome: the stealer owns the key.
func (t *dedupToken) store(res IngestResult) {
	if t == nil {
		return
	}
	d, e := t.d, t.e
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.stolen {
		return
	}
	e.res, e.ok = res, true
	close(e.done)
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
// dead client, and a partial delivery recovered from the log has no
// owner at all: either is handed to the arriving retry, which resumes
// where the delivery got to. The old owner's late outcome (if it ever
// settles) is discarded, and any requests waiting on it wake up and
// line up behind the new claim.
func (d *dedupWindow) begin(ctx context.Context, key string) (*dedupToken, *IngestResult, error) {
	if key == "" {
		return nil, nil, nil
	}
	for {
		d.mu.Lock()
		d.pruneLocked()
		e := d.entries[key]
		if e == nil {
			e = d.claimLocked(key, 0)
			d.mu.Unlock()
			return &dedupToken{d: d, e: e}, nil, nil
		}
		if e.ok {
			res := e.res
			res.Replayed = true
			d.mu.Unlock()
			return nil, &res, nil
		}
		if e.orphan || d.now().Sub(e.at) >= claimTTL {
			e.stolen = true
			close(e.done) // waiters re-examine and find the fresh claim
			fresh := d.claimLocked(key, e.next)
			fresh.seq = min(fresh.seq, e.seq) // the log keeps where e got to until fresh journals past it
			d.mu.Unlock()
			return &dedupToken{d: d, e: fresh, from: fresh.next}, nil, nil
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

	// key is the series a PUT names in its path; zero on a POST, whose
	// rows name their own.
	key tsdb.SeriesKey
	// gated: admit took the cluster write gate in read mode; release
	// leaves it.
	gated bool

	rows []tsdb.Row
	src  []int // global row index per staged row
	next int   // next global row index
	live liveChunk

	// tok is the request's idempotency claim (nil: unkeyed), and from
	// the body rows an interrupted delivery of its key already applied:
	// they are validated and counted again, not applied.
	tok  *dedupToken
	from int

	// stages receives the request's store-apply / wal-append /
	// hub-publish timings (nil outside a traced request; all uses are
	// guarded so the untraced path takes no timestamps).
	stages *obs.Stages
}

// ingesterPool recycles ingesters (and their chunk-sized staging
// slices) across requests; release returns them.
var ingesterPool = sync.Pool{New: func() any { return new(ingester) }}

func (s *Service) newIngester(st *obs.Stages, tok *dedupToken, key tsdb.SeriesKey) *ingester {
	g := ingesterPool.Get().(*ingester)
	if g.rows == nil {
		g.rows = make([]tsdb.Row, 0, ingestChunk)
		g.src = make([]int, 0, ingestChunk)
	}
	g.s = s
	g.stages = st
	g.key = key
	g.next = 0
	g.tok, g.from = tok, 0
	if tok != nil {
		g.from = tok.from
	}
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

// add validates and stages one decoded row: under the path's series on
// a PUT, under the row's own device and quantity on a POST.
//
// districtlint:hotpath
func (g *ingester) add(p Point) {
	row := g.next
	g.next++
	if g.key.Device != "" {
		g.stage(row, g.key, p)
		return
	}
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

// stage applies the shared value/time validation — the store's time
// range included, so a chunk's outcome is known before it is journaled
// — and queues the row. A row an interrupted delivery already applied
// is only counted.
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
	if !tsdb.Storable(at) {
		g.res.reject(row, tsdb.ErrTimeRange.Error())
		return
	}
	if row < g.from {
		g.res.Accepted++
		return
	}
	g.rows = append(g.rows, tsdb.Row{Key: key, Sample: tsdb.Sample{At: at, Value: p.Value}})
	g.src = append(g.src, row)
	if len(g.rows) >= ingestChunk {
		g.flush(false)
	}
}

// chunkJournaled, when set (tests only), runs after a keyed chunk is
// journaled and applied — at the point a kill would leave the chunk
// durable and the response unsent — with the body row it ends at.
var chunkJournaled func(next int)

// flush applies the staged chunk and folds per-row outcomes into the
// summary; last marks the request's final flush. On the sharded engine
// a keyed request's chunk journals its dedup note in the rows' record —
// the last one carrying the outcome, in a record of its own when no row
// is left — and the stage collector rides into the shard workers,
// which attribute the WAL and store waits themselves; other engines get a single store-apply timing around the
// batch call.
//
// districtlint:hotpath
func (g *ingester) flush(last bool) {
	sh, sharded := g.s.store.(*tsdb.Sharded)
	if len(g.rows) == 0 && !(last && g.tok != nil && sharded) {
		return
	}
	var errs []error
	if sharded {
		var note []byte
		if g.tok != nil {
			var res *IngestResult
			if last {
				r := g.res
				r.Accepted += len(g.rows)
				res = &r
			}
			note = g.tok.note(g.next, res)
		}
		var seq uint64
		errs, seq = sh.AppendBatchNote(g.rows, g.stages, note)
		if g.tok != nil && errs == nil {
			g.tok.applied(seq, g.next)
			if chunkJournaled != nil {
				chunkJournaled(g.next)
			}
		}
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
	live := len(g.rows) > 0 && hub.Live()
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

// finish applies any staged tail and returns the summary.
func (g *ingester) finish() IngestResult {
	g.flush(true)
	g.s.ingested.Add(uint64(g.res.Accepted))
	g.s.rejected.Add(uint64(g.res.Rejected))
	return g.res
}

// release leaves the cluster write gate if admit took it and recycles
// the ingester: it must not be touched afterwards. A finished result's
// error slice has escaped to the caller, so res is detached rather than
// reused.
func (g *ingester) release() {
	if g.gated {
		g.s.cnode.gate.RUnlock()
	}
	g.res = IngestResult{}
	g.rows, g.src = g.rows[:0], g.src[:0]
	g.s, g.stages, g.tok = nil, nil, nil
	g.key, g.gated = tsdb.SeriesKey{}, false
	ingesterPool.Put(g)
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

// decodeIngest is the one reader of ingest bodies, on node, clustered
// node and coordinator alike. A POST /v2/ingest body (field "rows") is
// a batched JSON body ({"rows":[...]}) by default, or a row-at-a-time
// NDJSON stream when the request body is application/x-ndjson or says
// encoding=ndjson (curl's default form content type decodes as JSON); a
// PUT samples body (field "samples") is always a JSON batch. The body
// is bounded by maxIngestBody.
//
// The decoded rows reach use in body order as a slice of the scanner's
// own, valid only until use returns: whatever the caller does with them
// — admit, stage, forward — it does inside use, so no hop copies them to
// outlive the decode. A JSON batch comes in one call once the body is
// read; so does an NDJSON stream when whole is set, while otherwise its
// rows come ingestChunk at a time as they are read. An error from use
// ends the decode and is returned.
//
// A JSON batch fails whole: an error (bad encoding, undecodable body,
// empty rows) means use was never called. An NDJSON stream does not:
// its first malformed line poisons the rest, so reading stops there, the
// rows before it stand, and malformed, set on the last call only, is the
// message the caller rejects at the row after them.
func decodeIngest(w http.ResponseWriter, r *http.Request, field string, whole bool, use func(pts []Point, malformed string) error) error {
	ndjson := false
	if field == "rows" {
		ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
		ndjson = strings.TrimSpace(ct) == NDJSONType
		switch enc := r.URL.Query().Get("encoding"); enc {
		case "":
		case "json":
			ndjson = false
		case "ndjson":
			ndjson = true
		default:
			return api.BadRequest(fmt.Errorf("bad encoding %q (want json or ndjson)", enc))
		}
	}
	sc := NewRowScanner(http.MaxBytesReader(w, r.Body, maxIngestBody))
	defer sc.Release()
	if !ndjson {
		pts, err := sc.decodeBatch(field)
		if err != nil {
			return api.BadRequest(fmt.Errorf("bad request body: %v", err))
		}
		if len(pts) == 0 {
			return api.BadRequest(errors.New("empty " + field))
		}
		return use(pts, "")
	}
	for {
		if !whole && len(sc.pts) == ingestChunk {
			if err := use(sc.pts, ""); err != nil {
				return err
			}
			sc.pts = sc.pts[:0]
		}
		sc.pts = append(sc.pts, Point{})
		if err := sc.Next(&sc.pts[len(sc.pts)-1]); err != nil {
			sc.pts = sc.pts[:len(sc.pts)-1]
			malformed := ""
			if !errors.Is(err, io.EOF) {
				malformed = "malformed row: " + err.Error()
			}
			return use(sc.pts, malformed)
		}
	}
}

// ingestEntrance reads which write entrance r came through: a POST's
// body field is "rows", each row naming its own series (zero key); a
// PUT's is "samples", every row belonging to the series its path names,
// which must be whole.
func ingestEntrance(r *http.Request) (field string, key tsdb.SeriesKey, err error) {
	if r.Method != http.MethodPut {
		return "rows", key, nil
	}
	p := api.ParamsOf(r)
	key = tsdb.SeriesKey{Device: p.Get("device"), Quantity: p.Get("quantity")}
	if key.Device == "" || key.Quantity == "" {
		return "", key, api.BadRequest(errors.New("missing device or quantity path segment"))
	}
	return "samples", key, nil
}

// v2Ingest serves both write entrances, POST /v2/ingest and PUT
// /v2/series/{device}/{quantity}/samples (an append to one path-named
// series), with one body: read the entrance, claim the idempotency key,
// decode, admit (clustered nodes only, over the whole body: see admit),
// stage, then finish, store the outcome and respond with the per-row
// summary envelope.
func (s *Service) v2Ingest(w http.ResponseWriter, r *http.Request) {
	field, key, err := ingestEntrance(r)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	tok, handled := s.claimIdempotency(w, r)
	if handled {
		return
	}
	defer tok.abandon() // no-op once the outcome is stored
	g := s.newIngester(obs.StagesFrom(r.Context()), tok, key)
	defer g.release()
	err = decodeIngest(w, r, field, s.cnode != nil, func(pts []Point, malformed string) error {
		if s.cnode != nil {
			if err := g.admit(r, pts); err != nil {
				w.Header().Set("Retry-After", "1")
				return err
			}
		}
		for i := range pts {
			g.add(pts[i])
		}
		if malformed != "" {
			g.res.reject(g.next, malformed)
		}
		return nil
	})
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	res := g.finish()
	tok.store(res)
	api.WriteJSON(w, http.StatusOK, res)
}
