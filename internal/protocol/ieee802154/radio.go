package ieee802154

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Radio simulates the shared 2.4 GHz medium of one PAN: every frame
// transmitted is delivered to all attached transceivers except the
// sender, subject to a configurable loss probability. It replaces the
// physical antennas of the paper's testbed while preserving broadcast
// semantics, loss, and ack timing behaviour.
type Radio struct {
	mu       sync.Mutex
	xcvrs    map[*Transceiver]struct{}
	lossProb float64
	rng      *rand.Rand
	closed   bool

	frames  uint64
	dropped uint64
}

// RadioOptions configure the simulated medium.
type RadioOptions struct {
	// LossProb in [0,1] drops each delivery independently.
	LossProb float64
	// Seed makes the loss process reproducible; 0 uses a fixed default.
	Seed int64
}

// NewRadio creates a simulated medium.
func NewRadio(opts RadioOptions) *Radio {
	seed := opts.Seed
	if seed == 0 {
		seed = 0x802154
	}
	return &Radio{
		xcvrs:    make(map[*Transceiver]struct{}),
		lossProb: opts.LossProb,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Transceiver is one attached radio endpoint with a short address.
type Transceiver struct {
	radio *Radio
	addr  uint16
	pan   uint16
	rx    chan []byte
}

// ErrRadioClosed reports transmission on a closed medium.
var ErrRadioClosed = errors.New("ieee802154: radio closed")

// Attach joins the medium with the given PAN and short address.
// rxBuffer is the receive queue depth (drops when full, like a real
// transceiver FIFO).
func (r *Radio) Attach(pan, addr uint16, rxBuffer int) (*Transceiver, error) {
	if rxBuffer <= 0 {
		rxBuffer = 64
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRadioClosed
	}
	t := &Transceiver{radio: r, addr: addr, pan: pan, rx: make(chan []byte, rxBuffer)}
	r.xcvrs[t] = struct{}{}
	return t, nil
}

// Detach leaves the medium.
func (t *Transceiver) Detach() {
	t.radio.mu.Lock()
	delete(t.radio.xcvrs, t)
	t.radio.mu.Unlock()
}

// Addr returns the transceiver's short address.
func (t *Transceiver) Addr() uint16 { return t.addr }

// Transmit puts raw frame bytes on the air: each receiver's queue gets
// them before Transmit returns.
func (t *Transceiver) Transmit(raw []byte) error {
	r := t.radio
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRadioClosed
	}
	r.frames++
	var targets []*Transceiver
	for x := range r.xcvrs {
		if x == t {
			continue
		}
		if r.lossProb > 0 && r.rng.Float64() < r.lossProb {
			r.dropped++
			continue
		}
		targets = append(targets, x)
	}
	r.mu.Unlock()

	for _, x := range targets {
		select {
		case x.rx <- raw:
		default:
			r.mu.Lock()
			r.dropped++
			r.mu.Unlock()
		}
	}
	return nil
}

// Send encodes and transmits a frame.
func (t *Transceiver) Send(f *Frame) error {
	raw, err := f.Encode()
	if err != nil {
		return err
	}
	return t.Transmit(raw)
}

// Receive blocks for the next frame addressed to this transceiver (its
// short address or broadcast, in its PAN) until the timeout elapses.
// Frames that fail FCS or address filtering are discarded, as hardware
// address filters do.
func (t *Transceiver) Receive(timeout time.Duration) (*Frame, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case raw := <-t.rx:
			f, err := Decode(raw)
			if err != nil {
				continue // corrupted on air: hardware drops it
			}
			if f.Type == FrameAck {
				return f, nil // acks carry no addressing
			}
			if f.DestPAN != t.pan && f.DestPAN != 0xFFFF {
				continue
			}
			if f.DestAddr != t.addr && f.DestAddr != BroadcastAddr {
				continue
			}
			return f, nil
		case <-deadline.C:
			return nil, ErrRxTimeout
		}
	}
}

// ErrRxTimeout reports that no frame arrived before the deadline.
var ErrRxTimeout = errors.New("ieee802154: receive timeout")

// RadioStats are cumulative medium counters.
type RadioStats struct {
	Frames  uint64
	Dropped uint64
	Nodes   int
}

// Stats returns a snapshot of medium counters.
func (r *Radio) Stats() RadioStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RadioStats{Frames: r.frames, Dropped: r.dropped, Nodes: len(r.xcvrs)}
}

// Close shuts the medium down.
func (r *Radio) Close() {
	r.mu.Lock()
	r.closed = true
	r.xcvrs = make(map[*Transceiver]struct{})
	r.mu.Unlock()
}
