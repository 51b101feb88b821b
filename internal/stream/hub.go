// Package stream is the publish/subscribe implementation and its wire:
// the one place events are sequenced, queued and fanned out. In process,
// a service publishes on its Hub and any consumer subscribes to it;
// between hosts, the Hub fans events out over Server-Sent Events on the
// versioned HTTP API with monotonic event IDs, bounded per-subscriber
// queues, and slow-consumer eviction, and a /v1/publish ingress lets
// remote processes inject events. Client side, Subscribe consumes a
// remote stream with automatic reconnection and Last-Event-ID resume (no
// gaps, no duplicates across a reconnect). The event type and the topic
// grammar are internal/middleware's.
package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/jsonwire"
	"repro/internal/middleware"
	"repro/internal/wal"
)

// ErrHubClosed reports use of a closed hub.
var ErrHubClosed = errors.New("stream: hub closed")

// Entry is one sequenced event: what a Hub fans out and what the SSE
// wire carries (the ID travels as the SSE id field).
type Entry struct {
	// ID is the hub-assigned monotonic sequence number.
	ID uint64
	// Event is the published event.
	Event middleware.Event

	// wire is the JSON of Event, byte-identical to json.Marshal, encoded
	// once at publish: the journal record and the SSE data line of every
	// subscriber are these bytes. Nil when nothing needed them at publish
	// time (memory-only hub, no matching subscriber) or the entry was
	// reloaded from the journal; a replay encodes such an entry on demand.
	wire []byte
}

// resumeWindow is how long after its last subscriber left a hub still
// counts as Live: longer than the stream client's worst reconnect
// back-off (MaxDelay 5s with +50% jitter = 7.5s), so whatever is
// published while a sole subscriber reconnects is in the ring for its
// Last-Event-ID resume.
const resumeWindow = 10 * time.Second

// HubOptions configure a Hub.
type HubOptions struct {
	// History is the replay ring capacity: how many recent events are
	// retained for Last-Event-ID resume. Zero means the default (1024).
	History int
	// QueueLen is the per-subscriber queue capacity, in events; a
	// subscriber whose queue is full when a batch arrives is evicted (it
	// reconnects and resumes from the replay ring) rather than stalling
	// the hub or silently losing events. A batch is admitted whole while
	// the queue has any room, so a subscriber that keeps up is never
	// evicted for the size of one batch. Zero means the default (256).
	QueueLen int
	// FirstID overrides the first event ID. Zero derives the ID base
	// from the wall clock, so a restarted hub keeps assigning IDs above
	// everything it assigned before — a resuming client never mistakes
	// fresh events for already-seen ones. A durable hub (Dir set) that
	// finds existing data continues from the persisted last ID instead.
	FirstID uint64
	// Dir re-backs the replay ring with a segmented log on disk: every
	// published event is journaled, OpenHub reloads the last History
	// entries, and Last-Event-ID resume works across a process restart,
	// not just a reconnect. Empty keeps the ring memory-only.
	Dir string
	// Fsync is the ring log's durability policy (default wal.FsyncNone:
	// the journal survives a process kill; choose a stronger mode to
	// survive machine crashes).
	Fsync wal.Mode
}

func (o HubOptions) withDefaults() HubOptions {
	if o.History <= 0 {
		o.History = 1024
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.FirstID == 0 {
		o.FirstID = uint64(time.Now().UnixNano())
	}
	return o
}

// Hub sequences events and fans them out to pattern subscribers. It is
// the server half of the streaming subsystem: every event gets a
// monotonic ID, lands in a bounded replay ring, and is delivered to
// every subscriber whose topic pattern matches (trie-indexed, so match
// cost grows with topic depth, not subscriber count).
type Hub struct {
	opts HubOptions

	// mu is the fan-out lock: every publisher and every subscriber
	// change serializes on it, so nothing slow may ever run under it.
	mu        sync.Mutex // districtlint:lockio
	idx       *middleware.Index
	subs      map[int]*Sub
	nextSubID int
	lastID    uint64 // last assigned event ID
	ring      []Entry
	ringStart int // index of the oldest entry once the ring is full
	closed    bool
	// idleSince is when the last subscriber left (zero: none ever
	// subscribed, or one is attached now); see Live.
	idleSince time.Time
	now       func() time.Time

	// PublishBatch scratch, guarded by mu. The trie visitor is bound once
	// (visit = noteMatch) and keeps its state here instead of in a
	// closure, so a publish allocates nothing for matching.
	visit    func(id int)
	matchAt  int    // index of the event being matched
	matchHit bool   // a subscriber matched it
	touched  []*Sub // subscribers matched so far by the batch

	published uint64
	refused   uint64 // events PublishBatch turned away
	delivered uint64
	evicted   uint64
	replayed  uint64

	// log is the ring log (nil: memory-only ring). Publishers stage
	// their entries in it under mu and commit them after unlocking, so
	// an fsync never stalls fan-out, and the log group-commits the
	// publishers waiting on it.
	log         *wal.Log
	persistErrs uint64
	sinceTrim   int
}

// NewHub creates a Hub. It can only fail when Options.Dir requests a
// durable ring — use OpenHub for that; NewHub panics on a disk error.
func NewHub(opts HubOptions) *Hub {
	h, err := OpenHub(opts)
	if err != nil {
		panic("stream: NewHub: " + err.Error() + " (use OpenHub for durable rings)")
	}
	return h
}

// OpenHub creates a Hub, reloading the replay ring from Options.Dir
// when set: retained events come back with their original IDs and the
// ID sequence continues where the previous process stopped, so a
// subscriber resuming with a pre-restart Last-Event-ID replays the gap
// exactly as if the connection had merely dropped.
func OpenHub(opts HubOptions) (*Hub, error) {
	opts = opts.withDefaults()
	h := &Hub{
		opts:   opts,
		idx:    middleware.NewIndex(),
		subs:   make(map[int]*Sub),
		lastID: opts.FirstID - 1,
		now:    time.Now,
	}
	h.visit = h.noteMatch
	if opts.Dir == "" {
		return h, nil
	}
	log, err := wal.Open(opts.Dir, wal.Options{
		FirstSeq:     opts.FirstID,
		Fsync:        opts.Fsync,
		SegmentBytes: 1 << 20,
	})
	if err != nil {
		return nil, err
	}
	err = log.Replay(0, func(seq uint64, p []byte) error {
		var ev middleware.Event
		if err := json.Unmarshal(p, &ev); err != nil {
			return nil // unreadable entry: skip, keep the rest of the ring
		}
		h.ringPush(Entry{ID: seq, Event: ev})
		return nil
	})
	if err != nil {
		return nil, errors.Join(err, log.Close())
	}
	h.lastID = log.LastSeq()
	if first := opts.FirstID - 1; first > h.lastID {
		// Never continue an ID sequence the journal may not have seen
		// to the end: under the weaker fsync modes (or after a persist
		// failure detached the log) the tail of the previous process's
		// live IDs can be missing from disk, and re-issuing those IDs
		// to fresh events would let a resuming client mistake them for
		// already-seen. Jump the log — and the ID sequence with it, the
		// ID == seq invariant holds — to the wall-clock-derived FirstID,
		// which is above everything the previous process assigned.
		if err := log.SkipTo(opts.FirstID); err != nil {
			return nil, errors.Join(err, log.Close())
		}
		h.lastID = first
	}
	h.log = log
	return h, nil
}

// Sub is one hub subscription: the server-side peer of an SSE
// connection (or any other in-process consumer).
type Sub struct {
	// Pattern is the subscribed topic pattern.
	Pattern string
	// Gap reports that events between the subscriber's Last-Event-ID
	// and the oldest retained entry had already expired from the replay
	// ring at subscribe time — the resume could not be gapless.
	Gap bool
	// C delivers sequenced events a publish batch at a time: each item
	// is the part of one batch that matches Pattern, in ID order and
	// never empty. Items are shared between subscribers — read-only. C
	// is closed when the subscription ends: by Close, by hub shutdown,
	// or by slow-consumer eviction (drain it to the end; buffered
	// entries are still valid).
	C <-chan []Entry

	hub     *Hub
	id      int
	ch      chan []Entry
	evicted bool // guarded by hub.mu

	// Queue accounting, guarded by hub.mu. The queue is bounded in
	// events but holds batches, and the consumer only ever receives from
	// ch, so the hub derives the backlog itself: before[j%len] is how
	// many events had been sent before item j, the channel holds the
	// last len(ch) items sent, and the difference is what is queued.
	pick   []int // PublishBatch scratch: indexes of the batch's matching events
	items  int   // items sent
	events int   // events sent
	before []int
}

// queuedLocked returns how many events sit in the subscriber's queue.
func (s *Sub) queuedLocked() int {
	k := len(s.ch)
	if k == 0 {
		return 0
	}
	return s.events - s.before[(s.items-k)%len(s.before)]
}

// Subscribe registers a subscriber for pattern. afterID > 0 requests
// resume: every retained event with ID > afterID matching the pattern
// is returned as replay (deliver it before reading C — entries arriving
// on C are strictly newer, so the hand-off is gapless and duplicate-free).
func (h *Hub) Subscribe(pattern string, afterID uint64) (*Sub, []Entry, error) {
	if err := middleware.ValidatePattern(pattern); err != nil {
		return nil, nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, ErrHubClosed
	}
	sub := &Sub{
		hub:     h,
		id:      h.nextSubID,
		Pattern: pattern,
		// One slot per event of the bound: every item holds at least
		// one event, so the channel cannot fill before the bound does.
		ch:     make(chan []Entry, h.opts.QueueLen),
		before: make([]int, h.opts.QueueLen),
	}
	sub.C = sub.ch
	h.nextSubID++

	var replay []Entry
	if afterID > 0 && afterID != h.lastID {
		n := len(h.ring)
		sawSelf, sawNext := false, false // afterID / afterID+1 retained
		for i := 0; i < n; i++ {
			e := h.ring[(h.ringStart+i)%n]
			if e.ID == afterID {
				sawSelf = true
			} else if e.ID == afterID+1 {
				sawNext = true
			}
			if e.ID > afterID && middleware.Match(pattern, e.Event.Topic) {
				replay = append(replay, e)
			}
		}
		h.replayed += uint64(len(replay))
		// The resume is gapless only when the retained entries still
		// connect to afterID. A durable hub reloaded after a crash can
		// hold an ID hole (journal tail lost under a weak fsync mode,
		// then the sequence jumped past the loss): a cursor the journal
		// never saw — neither it nor its successor retained — names
		// events that existed and are gone, and must see that flagged.
		// A retained cursor followed by a jump is the clean SkipTo shape
		// (nothing between was journaled) and resumes gaplessly.
		switch {
		case afterID > h.lastID:
			sub.Gap = true // future/foreign ID: nothing to line up against
		case n == 0 || h.ring[h.ringStart].ID > afterID+1:
			sub.Gap = true // expired from the replay window
		case !sawSelf && !sawNext:
			sub.Gap = true // cursor sits in an ID hole
		}
	}

	h.subs[sub.id] = sub
	h.idx.Add(pattern, sub.id)
	h.idleSince = time.Time{}
	return sub, replay, nil
}

// Close ends the subscription and releases its queue.
func (s *Sub) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	h.removeLocked(s)
}

// Evicted reports whether the hub dropped this subscriber for falling
// behind (C is closed in that case).
func (s *Sub) Evicted() bool {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.evicted
}

// removeLocked detaches a subscription; idempotent.
func (h *Hub) removeLocked(s *Sub) {
	if _, ok := h.subs[s.id]; !ok {
		return
	}
	delete(h.subs, s.id)
	h.idx.Remove(s.Pattern, s.id)
	close(s.ch)
	if len(h.subs) == 0 {
		h.idleSince = h.now()
	}
}

// Live reports whether publishing is worth a producer's while: a
// subscriber is attached, or the last one left less than the resume
// window ago and may be about to reconnect with a Last-Event-ID that
// only finds what was published meanwhile. A hub nobody ever subscribed
// to is not live, so a bulk producer can skip it (and its bounded ring)
// altogether.
func (h *Hub) Live() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	return len(h.subs) > 0 || (!h.idleSince.IsZero() && h.now().Sub(h.idleSince) < resumeWindow)
}

// Publish sequences one event and fans it out: PublishBatch of one.
func (h *Hub) Publish(ev middleware.Event) error {
	_, err := h.PublishBatch([]middleware.Event{ev})
	return err
}

// PublishBatch sequences evs as one contiguous ID range and fans them
// out under a single acquisition of the fan-out lock: every event lands
// in the replay ring under its own ID (a Last-Event-ID inside the batch
// resumes with the remainder), the batch is one journal write, and each
// subscriber gets one queue item holding the events its pattern
// matches. A subscriber whose queue is full is evicted on the spot:
// the stream contract is "no silent gaps", so nothing is dropped from a
// queue — the evicted consumer reconnects and resumes from the replay
// ring.
//
// An event with a malformed topic, or a timestamp JSON cannot carry, is
// refused: the rest of the batch is still published, and the returned
// count (events sequenced) and error say so. The slice is not retained.
//
// On a durable hub the batch is journaled before PublishBatch returns,
// but the journal write runs outside the fan-out lock: each event is
// staged in the ring log under mu, which makes its ID the log's seq,
// and committed after unlocking, one log write covering every publisher
// staged by then. An fsync therefore never blocks fan-out, only the
// publishers waiting on their own ack.
func (h *Hub) PublishBatch(evs []middleware.Event) (int, error) {
	// Refusals are rare: evs is only copied once one turns up.
	var refused error
	kept := evs
	for i := range evs {
		if err := checkEvent(&evs[i]); err != nil {
			if refused == nil {
				refused = err
				kept = append(make([]middleware.Event, 0, len(evs)-1), evs[:i]...)
			}
			continue
		}
		if refused != nil {
			kept = append(kept, evs[i])
		}
	}
	if refused != nil {
		bad := len(evs) - len(kept)
		refused = fmt.Errorf("stream: refused %d of %d events: %w", bad, len(evs), refused)
		evs = kept
		h.mu.Lock()
		h.refused += uint64(bad)
		h.mu.Unlock()
	}
	if len(evs) == 0 {
		return 0, refused
	}
	entries := make([]Entry, len(evs))
	var now time.Time // stamped lazily, once per batch

	h.mu.Lock()
	if h.closed {
		h.refused += uint64(len(evs))
		h.mu.Unlock()
		return 0, ErrHubClosed
	}
	// Pass 1, per event: which subscribers match (each records the
	// event's index — no copy yet), the wire bytes when a matching
	// subscriber or the journal will use them, and the ID — the seq the
	// journal stages the wire bytes under. A memory-only hub with nobody
	// listening encodes nothing.
	var wire []byte
	log := h.log
	var last uint64 // seq of the last entry staged
	staged, lost := 0, 0
	for i := range evs {
		e := &entries[i]
		e.Event = evs[i]
		if e.Event.At.IsZero() {
			if now.IsZero() {
				now = h.now().UTC()
			}
			e.Event.At = now
		}
		h.matchAt, h.matchHit = i, false
		h.idx.Match(e.Event.Topic, h.visit)
		if h.matchHit || log != nil {
			if wire == nil { // the first event with a reader sizes the buffer for the rest
				wire = make([]byte, 0, eventsWireLen(evs[i:]))
			}
			start := len(wire)
			wire = appendEvent(wire, &e.Event)
			e.wire = wire[start:len(wire):len(wire)]
		}
		e.ID = h.lastID + 1
		if log != nil && lost == 0 {
			if seq, err := log.Stage(e.wire); err != nil {
				lost = len(evs) - i
			} else {
				e.ID, last = seq, seq
				staged++
			}
		}
		h.lastID = e.ID
		h.ringPush(*e)
	}
	h.published += uint64(len(entries))
	h.sinceTrim += staged
	trim := h.sinceTrim > h.opts.History/2
	if trim {
		h.sinceTrim = 0
	}

	// Pass 2, per matched subscriber: one queue item. A subscriber that
	// matched the whole batch shares the batch slice itself.
	for _, sub := range h.touched {
		item := entries
		if len(sub.pick) < len(entries) {
			item = make([]Entry, len(sub.pick))
			for k, at := range sub.pick {
				item[k] = entries[at]
			}
		}
		sub.pick = sub.pick[:0]
		h.offerLocked(sub, item)
	}
	clear(h.touched)
	h.touched = h.touched[:0]
	h.mu.Unlock()

	if lost > 0 {
		h.detach(log, lost)
	}
	if staged > 0 {
		h.commit(log, last, staged, trim)
	}
	return len(entries), refused
}

// noteMatch is the trie visitor of the PublishBatch in progress:
// subscriber id matches the event at index matchAt.
func (h *Hub) noteMatch(id int) {
	sub := h.subs[id]
	if sub == nil {
		return
	}
	if len(sub.pick) == 0 {
		h.touched = append(h.touched, sub)
	}
	sub.pick = append(sub.pick, h.matchAt)
	h.matchHit = true
}

// checkEvent reports why the hub cannot carry ev: its topic is not a
// concrete topic, or its timestamp is one encoding/json refuses (and a
// JSON consumer could not parse back).
func checkEvent(ev *middleware.Event) error {
	if err := middleware.ValidateTopic(ev.Topic); err != nil {
		return err
	}
	if !jsonwire.TimeOK(ev.At) {
		return errors.New("stream: event time not expressible in RFC 3339")
	}
	return nil
}

// offerLocked queues one item for sub, or evicts sub when its queue
// already holds QueueLen events. Admission looks at the room before the
// item, not after: a batch larger than what is left — larger than
// QueueLen, even — goes in whole, because the alternative is evicting a
// consumer that has kept up. The send cannot block: fewer than QueueLen
// events queued means fewer than QueueLen (never empty) items in a
// channel with QueueLen slots, and the consumer only takes.
func (h *Hub) offerLocked(sub *Sub, item []Entry) {
	if sub.queuedLocked() >= h.opts.QueueLen {
		sub.evicted = true
		h.evicted++
		h.removeLocked(sub)
		return
	}
	sub.ch <- item
	sub.before[sub.items%len(sub.before)] = sub.events
	sub.items++
	sub.events += len(item)
	h.delivered += uint64(len(item))
}

// ringPush inserts one entry into the bounded replay ring.
func (h *Hub) ringPush(e Entry) {
	if len(h.ring) < h.opts.History {
		h.ring = append(h.ring, e)
	} else {
		h.ring[h.ringStart] = e
		h.ringStart = (h.ringStart + 1) % len(h.ring)
	}
}

// commit writes a publisher's staged entries, through seq last, to the
// ring log, and when trim is due drops the segments that have fallen
// out of the replay window. Persistence is best-effort relative to
// fan-out: a failure is counted and never stalls live delivery — but it
// also DETACHES the log, degrading the hub to its memory-only ring.
// Skipping single records instead would break the event-ID ==
// log-sequence invariant recovery depends on: every later record would
// land one seq behind its live ID, and a restart would replay shifted,
// wrong IDs. After a detach, a restart resumes from the last journaled
// event and resume points beyond it draw the normal gap marker.
func (h *Hub) commit(log *wal.Log, last uint64, staged int, trim bool) {
	if _, _, err := log.Commit(last); err != nil {
		h.detach(log, staged)
	} else if trim && last >= uint64(h.opts.History) {
		_ = log.TruncateBefore(last - uint64(h.opts.History) + 1)
	}
}

// detach counts events the failed ring log lost, and detaches and
// closes it the first time it fails.
func (h *Hub) detach(log *wal.Log, lost int) {
	h.mu.Lock()
	h.persistErrs += uint64(lost)
	first := h.log == log
	if first {
		h.log = nil
	}
	h.mu.Unlock()
	if first {
		// The log has failed; Close is cleanup, not durability.
		_ = log.Close() //lint:ignore closecheck log already failed; Close error carries no new information
	}
}

// KickAll evicts every subscriber (each sees its channel close and, over
// SSE, reconnects and resumes). An operational lever for draining a
// service before shutdown or rebalancing, and the deterministic way to
// exercise resume in tests. Returns how many were evicted.
func (h *Hub) KickAll() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, s := range h.subs {
		s.evicted = true
		h.evicted++
		h.removeLocked(s)
		n++
	}
	return n
}

// LastID returns the most recently assigned event ID (FirstID-1 when
// nothing has been published).
func (h *Hub) LastID() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastID
}

// HubStats are cumulative hub counters.
type HubStats struct {
	Published uint64 `json:"published"`
	// PublishErrors counts events the hub refused to sequence: malformed
	// topic, unencodable timestamp, or published after Close.
	PublishErrors uint64 `json:"publish_errors,omitempty"`
	Delivered     uint64 `json:"delivered"`
	Evicted       uint64 `json:"evicted"`
	Replayed      uint64 `json:"replayed"`
	Subscribers   int    `json:"subscribers"`
	Retained      int    `json:"retained"`
	// PersistErrors counts ring-log write failures of a durable hub
	// (events stay live but would not survive a restart).
	PersistErrors uint64 `json:"persist_errors,omitempty"`
}

// QueueDepth sums the events buffered across every subscriber queue —
// a live measure of how far the slowest consumers are behind fan-out.
func (h *Hub) QueueDepth() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	depth := 0
	for _, s := range h.subs {
		depth += s.queuedLocked()
	}
	return depth
}

// Stats returns a snapshot of the hub counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStats{
		Published:     h.published,
		PublishErrors: h.refused,
		Delivered:     h.delivered,
		Evicted:       h.evicted,
		Replayed:      h.replayed,
		Subscribers:   len(h.subs),
		Retained:      len(h.ring),
		PersistErrors: h.persistErrs,
	}
}

// Close shuts the hub down; every subscriber's channel is closed and a
// durable ring log is drained and synced for the next boot. The
// returned error is the ring log's close error — a durable hub caller
// that drops it cannot tell whether the final flush reached disk.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	for _, s := range h.subs {
		h.removeLocked(s)
	}
	// Detach under mu, close outside it: closed is set, so nothing is
	// staged behind the close, which writes what publishers staged.
	log := h.log
	h.log = nil
	h.mu.Unlock()
	if log == nil {
		return nil
	}
	return log.Close()
}
