package deviceproxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/measuredb"
	"repro/internal/middleware"
	"repro/internal/stream"
	"repro/internal/tsdb"
)

// fakeDriver is a scriptable dedicated layer.
type fakeDriver struct {
	mu       sync.Mutex
	readings []Reading
	pollErr  error
	actuated []ControlRequest
	actErr   error
	closed   bool
}

func (f *fakeDriver) Poll() ([]Reading, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pollErr != nil {
		return nil, f.pollErr
	}
	return append([]Reading(nil), f.readings...), nil
}

func (f *fakeDriver) Actuate(q dataformat.Quantity, v float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.actErr != nil {
		return f.actErr
	}
	f.actuated = append(f.actuated, ControlRequest{Quantity: q, Value: v})
	return nil
}

func (f *fakeDriver) Protocol() string { return "fake" }

func (f *fakeDriver) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}

const testURI = "urn:district:turin/building:b01/device:t-1"

func newProxy(t *testing.T, drv Driver) (*Proxy, string) {
	t.Helper()
	p, err := New(Options{
		DeviceURI: testURI,
		Name:      "Temp Lab 1",
		Driver:    drv,
		Model:     "SIM-1",
		Senses:    []dataformat.Quantity{dataformat.Temperature},
		Actuates:  []dataformat.Quantity{dataformat.SwitchState},
		Location:  &dataformat.Location{Latitude: 45.06, Longitude: 7.66},
		PollEvery: time.Hour, // poll manually via PollOnce
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.Run("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, addr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Driver: &fakeDriver{}}); err == nil {
		t.Error("missing URI accepted")
	}
	if _, err := New(Options{DeviceURI: "urn:x"}); err == nil {
		t.Error("missing driver accepted")
	}
}

// TestNewReportsStreamOpenError: a stream journal directory the WAL
// cannot open must surface as New's error, not as a nil stream service.
func TestNewReportsStreamOpenError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := New(Options{
		DeviceURI: testURI,
		Driver:    &fakeDriver{},
		Stream:    stream.Options{Hub: stream.HubOptions{Dir: file}},
	})
	if err == nil {
		p.Close()
		t.Fatal("New accepted a stream journal dir that is a regular file")
	}
}

// queued drains what the proxy's hub holds for sub. The hub queues on
// the publisher's goroutine, so the queue is complete when PollOnce
// returns.
func queued(sub *stream.Sub) []middleware.Event {
	var events []middleware.Event
	for {
		select {
		case batch := <-sub.C:
			for _, e := range batch {
				events = append(events, e.Event)
			}
		default:
			return events
		}
	}
}

func TestPollOnceBuffersAndPublishes(t *testing.T) {
	drv := &fakeDriver{readings: []Reading{
		{Quantity: dataformat.Temperature, Value: 21.5, Unit: dataformat.Celsius, Battery: 90},
		{Quantity: dataformat.Humidity, Value: 44, Unit: dataformat.Percent, Battery: 90},
	}}
	p, _ := newProxy(t, drv)
	sub, _, err := p.Stream().Hub().Subscribe("measurements/#", 0)
	if err != nil {
		t.Fatal(err)
	}
	p.PollOnce()
	events := queued(sub)

	st := p.Stats()
	if st.Polls != 1 || st.Samples != 2 || st.Published != 0 {
		t.Fatalf("Stats = %+v (no Writer: nothing leaves the proxy)", st)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	doc, err := dataformat.Decode(events[0].Payload, dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Measurement.Device != testURI || doc.Measurement.Protocol != "fake" {
		t.Errorf("published measurement = %+v", doc.Measurement)
	}
	wantTopic := measuredb.Topic(testURI, doc.Measurement.Quantity)
	if events[0].Topic != wantTopic {
		t.Errorf("topic = %q, want %q", events[0].Topic, wantTopic)
	}
}

// refusingEngine fails every row of one quantity in AppendBatch, the
// way a per-row engine error (a WAL failure on one shard) comes back.
type refusingEngine struct {
	tsdb.Engine
	quantity string
}

func (e refusingEngine) AppendBatch(rows []tsdb.Row) []error {
	errs := make([]error, len(rows))
	var keep []tsdb.Row
	for i, r := range rows {
		if r.Key.Quantity == e.quantity {
			errs[i] = errors.New("injected: shard refused the row")
			continue
		}
		keep = append(keep, r)
	}
	if e.Engine.AppendBatch(keep) != nil {
		panic("the in-memory engine refused a row")
	}
	return errs
}

// A poll stores its readings with one batch append; a reading whose row
// the engine refuses is neither counted nor published, and the other
// readings of the same poll are both.
func TestPollSkipsReadingsTheEngineRefused(t *testing.T) {
	eng := refusingEngine{Engine: tsdb.NewSharded(tsdb.ShardedOptions{Shards: 1}), quantity: string(dataformat.Humidity)}
	p, err := New(Options{
		DeviceURI: testURI,
		Driver: &fakeDriver{readings: []Reading{
			{Quantity: dataformat.Temperature, Value: 21.5, Unit: dataformat.Celsius, Battery: -1},
			{Quantity: dataformat.Humidity, Value: 44, Unit: dataformat.Percent, Battery: -1},
		}},
		PollEvery:   time.Hour,
		LocalEngine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	sub, _, err := p.Stream().Hub().Subscribe("measurements/#", 0)
	if err != nil {
		t.Fatal(err)
	}
	p.PollOnce()
	events := queued(sub)
	if st := p.Stats(); st.Samples != 1 {
		t.Fatalf("Stats = %+v, want the one stored reading counted", st)
	}
	if len(events) != 1 || events[0].Topic != measuredb.Topic(testURI, dataformat.Temperature) {
		t.Fatalf("published %d events (%+v), want the temperature reading only", len(events), events)
	}
	if n := p.LocalDB().Len(tsdb.SeriesKey{Device: testURI, Quantity: string(dataformat.Temperature)}); n != 1 {
		t.Fatalf("local buffer holds %d temperature samples, want 1", n)
	}
}

func TestPollErrorCounted(t *testing.T) {
	drv := &fakeDriver{pollErr: errors.New("radio down")}
	p, _ := newProxy(t, drv)
	p.PollOnce()
	st := p.Stats()
	if st.Polls != 1 || st.PollErrs != 1 || st.Samples != 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestInfoEndpoint(t *testing.T) {
	drv := &fakeDriver{readings: []Reading{{Quantity: dataformat.Temperature, Value: 20, Unit: dataformat.Celsius, Battery: 77}}}
	p, addr := newProxy(t, drv)
	p.PollOnce()

	doc, err := (&api.Transport{}).GetDoc(context.Background(), "http://"+addr+"/info", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	d := doc.Device
	if d == nil || d.URI != testURI || d.Protocol != "fake" || d.Model != "SIM-1" {
		t.Fatalf("info = %+v", d)
	}
	if d.BatteryPC != 77 {
		t.Errorf("battery = %v", d.BatteryPC)
	}
	if len(d.Senses) != 1 || d.Senses[0] != dataformat.Temperature {
		t.Errorf("senses = %v", d.Senses)
	}
	// XML negotiation.
	doc, err = (&api.Transport{}).GetDoc(context.Background(), "http://"+addr+"/info", dataformat.XML)
	if err != nil || doc.Device.Name != "Temp Lab 1" {
		t.Errorf("xml info: %v %+v", err, doc.Device)
	}
}

func TestDataAndLatestEndpoints(t *testing.T) {
	drv := &fakeDriver{}
	p, addr := newProxy(t, drv)
	for i := 0; i < 5; i++ {
		drv.mu.Lock()
		drv.readings = []Reading{{Quantity: dataformat.Temperature, Value: 20 + float64(i), Unit: dataformat.Celsius, Battery: -1}}
		drv.mu.Unlock()
		p.PollOnce()
	}

	doc, err := (&api.Transport{}).GetDoc(context.Background(), "http://"+addr+"/data?quantity=temperature", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Measurements) != 5 {
		t.Fatalf("measurements = %d", len(doc.Measurements))
	}
	if doc.Measurements[4].Value != 24 {
		t.Errorf("last value = %v", doc.Measurements[4].Value)
	}

	doc, err = (&api.Transport{}).GetDoc(context.Background(), "http://"+addr+"/latest?quantity=temperature", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Measurement.Value != 24 {
		t.Errorf("latest = %+v", doc.Measurement)
	}
}

func TestDataEndpointErrors(t *testing.T) {
	p, addr := newProxy(t, &fakeDriver{})
	_ = p
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/data", http.StatusBadRequest},
		{"/data?quantity=temperature", http.StatusNotFound},
		{"/data?quantity=temperature&from=garbage", http.StatusBadRequest},
		{"/latest?quantity=temperature", http.StatusNotFound},
		{"/latest", http.StatusBadRequest},
	} {
		rsp, err := http.Get("http://" + addr + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode != tc.want {
			t.Errorf("%s = %d, want %d", tc.path, rsp.StatusCode, tc.want)
		}
	}
}

func TestDataRangeFilter(t *testing.T) {
	drv := &fakeDriver{}
	p, addr := newProxy(t, drv)
	base := time.Now().UTC().Add(-time.Hour).Truncate(time.Second)
	for i := 0; i < 10; i++ {
		drv.mu.Lock()
		drv.readings = []Reading{{
			Quantity: dataformat.Temperature, Value: float64(i),
			Unit: dataformat.Celsius, Battery: -1,
			At: base.Add(time.Duration(i) * time.Minute),
		}}
		drv.mu.Unlock()
		p.PollOnce()
	}
	u := fmt.Sprintf("http://%s/data?quantity=temperature&from=%s&to=%s", addr,
		url.QueryEscape(base.Add(2*time.Minute).Format(time.RFC3339)),
		url.QueryEscape(base.Add(5*time.Minute).Format(time.RFC3339)))
	doc, err := (&api.Transport{}).GetDoc(context.Background(), u, dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Measurements) != 4 {
		t.Errorf("range query = %d measurements, want 4", len(doc.Measurements))
	}
}

func TestControlEndpoint(t *testing.T) {
	drv := &fakeDriver{}
	p, addr := newProxy(t, drv)

	body, _ := json.Marshal(ControlRequest{Quantity: dataformat.SwitchState, Value: 1})
	rsp, err := http.Post("http://"+addr+"/control", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := dataformat.DecodeFrom(rsp.Body, dataformat.JSON)
	rsp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Control.Applied || doc.Control.Device != testURI {
		t.Fatalf("control = %+v", doc.Control)
	}
	drv.mu.Lock()
	n := len(drv.actuated)
	drv.mu.Unlock()
	if n != 1 {
		t.Fatalf("driver actuated %d times", n)
	}
	if p.Stats().Controls != 1 {
		t.Errorf("Controls = %d", p.Stats().Controls)
	}
}

func TestControlFailureReported(t *testing.T) {
	drv := &fakeDriver{actErr: ErrNotActuator}
	_, addr := newProxy(t, drv)
	body, _ := json.Marshal(ControlRequest{Quantity: dataformat.SwitchState, Value: 1})
	rsp, err := http.Post("http://"+addr+"/control", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := dataformat.DecodeFrom(rsp.Body, dataformat.JSON)
	rsp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Control.Applied || doc.Control.Error == "" {
		t.Errorf("control = %+v", doc.Control)
	}
}

func TestControlRejects(t *testing.T) {
	_, addr := newProxy(t, &fakeDriver{})
	rsp, _ := http.Get("http://" + addr + "/control")
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /control = %d", rsp.StatusCode)
	}
	rsp, _ = http.Post("http://"+addr+"/control", "application/json", bytes.NewReader([]byte("{")))
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage /control = %d", rsp.StatusCode)
	}
	rsp, _ = http.Post("http://"+addr+"/control", "application/json", bytes.NewReader([]byte("{}")))
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty quantity /control = %d", rsp.StatusCode)
	}
}

func TestSampleLoopRuns(t *testing.T) {
	drv := &fakeDriver{readings: []Reading{{Quantity: dataformat.Temperature, Value: 1, Unit: dataformat.Celsius, Battery: -1}}}
	p, err := New(Options{
		DeviceURI: testURI, Driver: drv, PollEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().Polls >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Close()
	if p.Stats().Polls < 3 {
		t.Fatalf("sampling loop made %d polls", p.Stats().Polls)
	}
	drv.mu.Lock()
	closed := drv.closed
	drv.mu.Unlock()
	if !closed {
		t.Error("Close did not close the driver")
	}
}

func TestAggregateEndpoint(t *testing.T) {
	drv := &fakeDriver{}
	p, addr := newProxy(t, drv)
	base := time.Now().UTC().Add(-time.Hour).Truncate(5 * time.Minute)
	for i := 0; i < 10; i++ {
		drv.mu.Lock()
		drv.readings = []Reading{{
			Quantity: dataformat.Temperature, Value: float64(i),
			Unit: dataformat.Celsius, Battery: -1,
			At: base.Add(time.Duration(i) * time.Minute),
		}}
		drv.mu.Unlock()
		p.PollOnce()
	}
	u := fmt.Sprintf("http://%s/aggregate?quantity=temperature&window=5m&from=%s&to=%s", addr,
		url.QueryEscape(base.Format(time.RFC3339)),
		url.QueryEscape(base.Add(10*time.Minute).Format(time.RFC3339)))
	rsp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate = %d", rsp.StatusCode)
	}
	var buckets []struct {
		Count int
		Mean  float64
	}
	if err := json.NewDecoder(rsp.Body).Decode(&buckets); err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 || buckets[0].Count != 5 || buckets[0].Mean != 2 {
		t.Fatalf("buckets = %+v", buckets)
	}

	for _, bad := range []string{
		"/aggregate",
		"/aggregate?quantity=temperature", // no window
		"/aggregate?quantity=temperature&window=banana",
		"/aggregate?quantity=ghost&window=1m", // unknown series
		"/aggregate?quantity=temperature&window=1m&from=garbage",
	} {
		rsp, err := http.Get("http://" + addr + bad)
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode == http.StatusOK {
			t.Errorf("%s unexpectedly OK", bad)
		}
	}
}

// captureWriter is a SampleWriter recording the rows it receives.
type captureWriter struct {
	mu   sync.Mutex
	rows []measuredb.Point
}

func (w *captureWriter) Add(p measuredb.Point) error {
	w.mu.Lock()
	w.rows = append(w.rows, p)
	w.mu.Unlock()
	return nil
}

// TestEverySampleReachesBusAndWriterOnce checks the proxy's two
// outlets: with a Writer set, every polled sample is published exactly
// once on the proxy's own hub (its /v1/stream feed) and handed exactly
// once to the /v2 ingest Writer as a self-contained row.
func TestEverySampleReachesBusAndWriterOnce(t *testing.T) {
	drv := &fakeDriver{readings: []Reading{
		{Quantity: dataformat.Temperature, Value: 21.5, Unit: dataformat.Celsius},
		{Quantity: dataformat.Humidity, Value: 44, Unit: dataformat.Percent},
	}}
	w := &captureWriter{}
	p, err := New(Options{
		DeviceURI: testURI,
		Driver:    drv,
		PollEvery: time.Hour,
		Writer:    w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sub, _, err := p.Stream().Hub().Subscribe("measurements/#", 0)
	if err != nil {
		t.Fatal(err)
	}

	p.PollOnce()
	onBus := map[string]int{} // topic → events
	for _, ev := range queued(sub) {
		onBus[ev.Topic]++
	}
	w.mu.Lock()
	rows := append([]measuredb.Point(nil), w.rows...)
	w.mu.Unlock()
	if len(rows) != 2 {
		t.Fatalf("writer received %d rows, want 2", len(rows))
	}
	if rows[0].Device != testURI || rows[0].Quantity != "temperature" || rows[0].Value != 21.5 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[0].At.IsZero() {
		t.Fatal("row without timestamp")
	}
	if rows[1].Quantity != "humidity" || rows[1].Value != 44 {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	for _, q := range []dataformat.Quantity{dataformat.Temperature, dataformat.Humidity} {
		if n := onBus[measuredb.Topic(testURI, q)]; n != 1 {
			t.Fatalf("own hub saw %d events for %s, want 1 (all: %v)", n, q, onBus)
		}
	}
	if len(onBus) != 2 {
		t.Fatalf("own hub topics = %v", onBus)
	}
	if got := p.Stats().Published; got != 2 {
		t.Fatalf("published counter = %d", got)
	}
}
