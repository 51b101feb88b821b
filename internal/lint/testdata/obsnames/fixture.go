// Fixture for the obsnames rule: instrument names registered through
// the obs registry must be constant repro_-prefixed snake_case with the
// unit suffix their type implies, and label keys must be constant.
package fixtureobs

import "repro/internal/obs"

var reg = obs.NewRegistry()

const goodName = "repro_fixture_events_total"

func value() float64 { return 0 }

func register(dynamic string) {
	// Conforming registrations: constant names, right suffixes,
	// constant label keys (dynamic label VALUES are fine).
	reg.Counter(goodName, "events", nil)
	reg.CounterFunc("repro_fixture_drops_total", "drops", obs.Labels{"shard": dynamic}, value)
	reg.Gauge("repro_fixture_queue_depth", "depth", nil)
	reg.GaugeFunc("repro_fixture_snapshot_age_seconds", "age", nil, value)
	reg.Histogram("repro_fixture_fsync_seconds", "fsync", obs.FastLatencyBuckets, nil)
	reg.Histogram("repro_fixture_group_rows", "group", obs.CountBuckets, nil)
	// A byte counter keeps its unit and still ends in _total, as
	// repro_http_response_bytes_total{encoding} does.
	reg.Counter("repro_fixture_response_bytes_total", "bytes", obs.Labels{"encoding": "gzip"})

	// A labels literal hoisted into a variable stays legal.
	shard := obs.Labels{"shard": "0"}
	reg.Gauge("repro_fixture_wal_pending_rows", "pending", shard)

	reg.Counter("repro_fixture_events", "no suffix", nil)    // want "obsnames: counter .repro_fixture_events. must end in _total"
	reg.Gauge("repro_fixture_rows_total", "counterish", nil) // want "obsnames: gauge .repro_fixture_rows_total. must not end in _total"
	reg.Histogram("repro_fixture_latency", "no unit",        // want "obsnames: histogram .repro_fixture_latency. must end in a unit suffix"
		obs.LatencyBuckets, nil)
	reg.Counter("fixture_events_total", "no prefix", nil) // want "obsnames: metric name .fixture_events_total. must match"
	reg.Counter("repro_Fixture_total", "case", nil)       // want "obsnames: metric name .repro_Fixture_total. must match"
	reg.Counter(dynamic, "dynamic name", nil)             // want "obsnames: Counter name must be a compile-time constant string"

	reg.Gauge("repro_fixture_depth", "labels",
		obs.Labels{dynamic: "x"}) // want "obsnames: obs.Labels key must be a compile-time constant string"
	reg.Gauge("repro_fixture_width", "labels",
		obs.Labels{"Bad-Key": "x"}) // want "obsnames: obs.Labels key .Bad-Key. must match"

	// The literal-bypass: writing a dynamic key after construction.
	shard[dynamic] = "x" // want "obsnames: obs.Labels key must be a compile-time constant string"
	shard["ok"] = dynamic
}
