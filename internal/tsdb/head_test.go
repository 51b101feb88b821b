package tsdb

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

// hasPointers reports whether a value of type t holds any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// The head's sample arrays must stay pointer-free: a time.Time (it
// carries a *Location) in them would make the collector scan every
// segment and every append run the write barrier again.
func TestHeadSamplesArePointerFree(t *testing.T) {
	for name, typ := range map[string]reflect.Type{
		"segment.samples": reflect.TypeOf(segment{}.samples).Elem(),
		"series.spill":    reflect.TypeOf(series{}.spill).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s holds %v, which contains pointers", name, typ)
		}
		if typ.Size() != pointSize {
			t.Errorf("%s holds %v of %d bytes, want %d", name, typ, typ.Size(), pointSize)
		}
	}
	if !hasPointers(reflect.TypeOf(Sample{})) {
		t.Fatal("hasPointers misses the *Location inside time.Time")
	}
}

// A row outside the store's time range is refused before it is
// journaled; the two extreme instants of the range are kept and read
// back as the same instants, from memory, after a reopen, and after a
// compaction cut them into a block. The range starts at the first whole
// hour a Unix-nanosecond int64 names: an instant before it is an int64
// whose 1h rollup bucket start is not.
func TestAppendRefusesUnstorableInstants(t *testing.T) {
	k := key()
	rows := []Row{
		{Key: k, Sample: Sample{At: time.Date(1, 6, 1, 0, 0, 0, 0, time.UTC), Value: 1}},
		{Key: k, Sample: Sample{At: time.Date(1677, 9, 21, 2, 0, 0, 0, time.FixedZone("", 3600)), Value: 2}},
		{Key: k, Sample: Sample{At: t0, Value: 3}},
		{Key: k, Sample: Sample{At: time.Unix(0, math.MaxInt64), Value: 4}},
		{Key: k, Sample: Sample{At: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), Value: 5}},
		{Key: k, Sample: Sample{At: time.Date(1677, 9, 21, 0, 59, 59, 999999999, time.UTC), Value: 6}},
		{Key: k, Sample: Sample{At: time.Unix(0, math.MaxInt64).Add(time.Nanosecond), Value: 7}},
		{Key: k, Sample: Sample{At: time.Unix(0, math.MinInt64), Value: 8}},
		{Key: k, Sample: Sample{At: t0.Add(3 * time.Hour), Value: 9}},
	}
	refused := map[int]bool{0: true, 4: true, 5: true, 6: true, 7: true}
	var want []Sample
	for i, r := range rows {
		if !refused[i] {
			want = append(want, Sample{At: r.Sample.At.UTC(), Value: r.Sample.Value})
		}
	}
	slices.SortFunc(want, func(a, b Sample) int { return a.At.Compare(b.At) })
	check := func(name string, eng *Sharded) {
		t.Helper()
		got, err := eng.Query(k, time.Time{}, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read back\n%v\nwant\n%v", name, got, want)
		}
		latest, err := eng.Latest(k)
		if err != nil || latest != want[len(want)-1] {
			t.Fatalf("%s: latest %v, %v", name, latest, err)
		}
		agg, err := eng.Aggregate(k, time.Time{}, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
		if err != nil || agg.Count != len(want) || agg.First != want[0] || agg.Last != want[len(want)-1] {
			t.Fatalf("%s: aggregate %+v, %v", name, agg, err)
		}
		// Two ranges that cover a block only in part: hour buckets plus
		// decoded edges.
		for _, rg := range [][2]int{{0, 1}, {1, 2}} {
			from, to := want[rg[0]].At, want[rg[1]].At
			agg, err := eng.Aggregate(k, from, to)
			if err != nil || agg.Count != 2 || agg.First != want[rg[0]] || agg.Last != want[rg[1]] {
				t.Fatalf("%s: aggregate [%v, %v] = %+v, %v", name, from, to, agg, err)
			}
		}
	}

	dir := t.TempDir()
	for _, eng := range []*Sharded{newMem(t, Options{}), openDurable(t, dir, ShardedOptions{Shards: 2})} {
		errs := eng.AppendBatch(rows)
		if errs == nil {
			t.Fatal("no row refused")
		}
		for i, err := range errs {
			if refused[i] != errors.Is(err, ErrTimeRange) || (!refused[i] && err != nil) {
				t.Fatalf("row %d (%v): err %v", i, rows[i].Sample.At, err)
			}
		}
	}
	// The durable engine above is left open, as a killed process leaves
	// it; the reopen replays its WAL.
	re := openDurable(t, dir, ShardedOptions{Shards: 2})
	defer re.Close()
	check("reopened", re)
	if err := re.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Samples != len(want) || re.ShardStatus(re.ShardFor(k.Device)).Blocks != 1 {
		t.Fatalf("compaction: %+v", st)
	}
	check("compacted", re)
	mem := newMem(t, Options{})
	if errs := mem.AppendBatch(rows); len(errs) != len(rows) {
		t.Fatalf("memory engine: %d error slots", len(errs))
	}
	check("memory", mem)
}

// The head answers in UTC, as the blocks do: a row ingested with a zone
// offset reads back identically before and after it is cut into a block.
func TestHeadAndBlockReadsAgree(t *testing.T) {
	zone := time.FixedZone("", 3600)
	k := key()
	var rows []Row
	for i := 0; i < 300; i++ {
		rows = append(rows, Row{Key: k, Sample: Sample{At: t0.In(zone).Add(time.Duration(i) * time.Second), Value: float64(i%17) + 0.25}})
	}
	eng := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatal(errs)
	}
	from, to := t0.Add(-time.Hour), t0.Add(time.Hour)
	read := func() []any {
		all, err := eng.Query(k, from, to)
		if err != nil {
			t.Fatal(err)
		}
		page, err := eng.QueryPage(k, from, to, Cursor{}, 100)
		if err != nil {
			t.Fatal(err)
		}
		latest, err := eng.Latest(k)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := eng.Aggregate(k, from, to)
		if err != nil {
			t.Fatal(err)
		}
		return []any{all, page, latest, agg}
	}
	head := read()
	if at := head[2].(Sample).At; at.Location() != time.UTC {
		t.Fatalf("head latest in %v, want UTC", at.Location())
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if st := eng.ShardStatus(0); st.Blocks != 1 || eng.shards[0].Len(k) != 0 {
		t.Fatalf("rows not cut into one block: %+v", st)
	}
	if blocks := read(); !reflect.DeepEqual(head, blocks) {
		t.Fatalf("head answered\n%+v\nblocks answer\n%+v", head, blocks)
	}
}
