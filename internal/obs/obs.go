// Package obs is the zero-dependency observability layer shared by
// every service: a typed instrument registry (counters, gauges,
// fixed-bucket histograms) with a Prometheus text exposition and a JSON
// snapshot, plus cross-service trace plumbing (trace.go).
//
// Instruments are lock-cheap — counters and histogram buckets are
// plain atomics, gauges may be callback-backed so internals (queue
// depths, WAL watermarks, snapshot age) are read at scrape time instead
// of being pushed on the hot path — and cardinality is bounded by
// construction: every instrument is registered once with a fixed label
// set, so a registry can never grow per-request series.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one instrument's fixed label set. Keys must be literal
// (static) names — the districtlint obsnames rule enforces that at the
// call site; values may be dynamic but are fixed at registration
// (e.g. a shard index), which is what bounds cardinality.
type Labels map[string]string

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// kind discriminates instrument flavours inside a registry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered metric: a name, a fixed label set, and
// exactly one of the value holders.
type instrument struct {
	name   string
	help   string
	kind   kind
	labels Labels
	lstr   string // pre-rendered sorted label body, e.g. `shard="3"`

	c  *Counter
	g  *Gauge
	fn func() float64 // callback-backed counter/gauge
	h  *Histogram
}

// value reads the instrument's scalar (counters and gauges).
func (in *instrument) value() float64 {
	switch {
	case in.fn != nil:
		return in.fn()
	case in.c != nil:
		return float64(in.c.Value())
	default:
		return in.g.Value()
	}
}

// Registry holds named instruments. Registration is idempotent per
// (name, labels): asking again returns the same instrument, and asking
// with a conflicting kind panics — both are programmer errors a test
// hits immediately, not operational conditions.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*instrument
	list []*instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument)}
}

// validName pins the naming convention: snake_case under the repro_
// namespace. Unit-suffix conventions (_total, _seconds, _bytes) are
// enforced statically by districtlint's obsnames rule.
func validName(name string) bool {
	if !strings.HasPrefix(name, "repro_") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
			continue
		}
		return false
	}
	return true
}

// register finds or creates the instrument for (name, labels) and runs
// fill on it under the registry lock, so no caller or scrape sees an
// instrument before its value holder is set.
func (r *Registry) register(name, help string, k kind, labels Labels, fill func(*instrument)) *instrument {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want repro_[a-z0-9_]+)", name))
	}
	lstr := renderLabels(labels, nil)
	id := name + "{" + lstr + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.byID[id]
	if in == nil {
		in = &instrument{name: name, help: help, kind: k, labels: labels, lstr: lstr}
		r.byID[id] = in
		r.list = append(r.list, in)
	} else if in.kind != k {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", id, k, in.kind))
	}
	fill(in)
	return in
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.register(name, help, kindCounter, labels, func(in *instrument) {
		if in.c == nil && in.fn == nil {
			in.c = &Counter{}
		}
	}).c
}

// CounterFunc registers a callback-backed counter: fn is read at
// scrape time, so an existing atomic (HubStats fields, dropped-row
// counts) is exported without double accounting.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, kindCounter, labels, func(in *instrument) { in.fn = fn })
}

// Gauge registers (or finds) a settable gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.register(name, help, kindGauge, labels, func(in *instrument) {
		if in.g == nil && in.fn == nil {
			in.g = &Gauge{}
		}
	}).g
}

// GaugeFunc registers a callback-backed gauge, evaluated at scrape
// time — the idiom for live internals like queue depths and snapshot
// age.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, kindGauge, labels, func(in *instrument) { in.fn = fn })
}

// Histogram registers (or finds) a histogram with the given bucket
// upper bounds (ascending; a final +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	return r.register(name, help, kindHistogram, labels, func(in *instrument) {
		if in.h == nil {
			in.h = newHistogram(bounds)
		}
	}).h
}

// Snapshot is one instrument's point-in-time reading, JSON-shaped for
// the /v1/metrics document and districtctl top.
type Snapshot struct {
	Name      string             `json:"name"`
	Type      string             `json:"type"`
	Labels    Labels             `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot reads every instrument, sorted by name then label string.
func (r *Registry) Snapshot() []Snapshot {
	ins := r.sorted()
	out := make([]Snapshot, 0, len(ins))
	for _, in := range ins {
		s := Snapshot{Name: in.name, Type: in.kind.String(), Labels: in.labels}
		if in.kind == kindHistogram {
			hs := in.h.Snapshot()
			s.Histogram = &hs
			s.Value = float64(hs.Count)
		} else {
			s.Value = in.value()
		}
		out = append(out, s)
	}
	return out
}

// sorted copies the instrument list in stable exposition order.
func (r *Registry) sorted() []*instrument {
	r.mu.Lock()
	ins := make([]*instrument, len(r.list))
	copy(ins, r.list)
	r.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].name != ins[j].name {
			return ins[i].name < ins[j].name
		}
		return ins[i].lstr < ins[j].lstr
	})
	return ins
}

// WritePrometheus renders the registry in text exposition format 0.0.4.
// extra labels (typically {service="..."}) are merged into every
// series.
func (r *Registry) WritePrometheus(w io.Writer, extra Labels) {
	ins := r.sorted()
	lastName := ""
	for _, in := range ins {
		if in.name != lastName {
			fmt.Fprintf(w, "# HELP %s %s\n", in.name, in.help)
			fmt.Fprintf(w, "# TYPE %s %s\n", in.name, in.kind)
			lastName = in.name
		}
		body := renderLabels(in.labels, extra)
		if in.kind != kindHistogram {
			fmt.Fprintf(w, "%s%s %s\n", in.name, braced(body), formatFloat(in.value()))
			continue
		}
		hs := in.h.Snapshot()
		cum := uint64(0)
		for i, b := range hs.Bounds {
			cum += hs.Counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", in.name, braced(join(body, `le="`+formatFloat(b)+`"`)), cum)
		}
		cum += hs.Counts[len(hs.Bounds)]
		fmt.Fprintf(w, "%s_bucket%s %d\n", in.name, braced(join(body, `le="+Inf"`)), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", in.name, braced(body), formatFloat(hs.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", in.name, braced(body), cum)
	}
}

// renderLabels merges and renders label pairs as `k="v",k2="v2"` with
// keys sorted; extra wins on key collision.
func renderLabels(labels, extra Labels) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	merged := make(map[string]string, len(labels)+len(extra))
	for k, v := range labels {
		merged[k] = v
	}
	for k, v := range extra {
		merged[k] = v
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(merged[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// braced wraps a non-empty label body in curly braces.
func braced(body string) string {
	if body == "" {
		return ""
	}
	return "{" + body + "}"
}

// join appends one rendered pair to a label body.
func join(body, pair string) string {
	if body == "" {
		return pair
	}
	return body + "," + pair
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
