package jsonwire

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// AppendString and AppendFloat keep their differential and fuzz tests
// where they grew up (internal/measuredb/encode_test.go, with the row
// encoders built on them); the encoders added with the move are
// checked here the same way, against encoding/json.

func TestAppendBytesMatchesJSONMarshal(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {0}, []byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"),
		{0xff, 0xfe, 0xfd}, bytes.Repeat([]byte{0xfb, 0xff, 0x3e}, 1000)} {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBytes([]byte("x"), p); string(got) != "x"+string(want) {
			t.Errorf("bytes %x:\nappend:  %s\nmarshal: %s", p, got[1:], want)
		}
	}
}

func FuzzAppendBytes(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(`{"v":1}`))
	f.Fuzz(func(t *testing.T, p []byte) {
		want, _ := json.Marshal(p)
		if got := AppendBytes(nil, p); !bytes.Equal(got, want) {
			t.Errorf("bytes %x:\nappend:  %s\nmarshal: %s", p, got, want)
		}
	})
}

// TestTimeOKIsWhatMarshalJSONAccepts: AppendTime equals MarshalJSON
// exactly where TimeOK says so, and MarshalJSON refuses the rest.
func TestTimeOKIsWhatMarshalJSONAccepts(t *testing.T) {
	for _, at := range []time.Time{
		{}, time.Unix(0, 0).UTC(), time.Unix(1425895200, 500).UTC(),
		time.Date(2015, 3, 9, 12, 0, 0, 250000000, time.FixedZone("CET", 3600)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 3, 9, 12, 0, 0, 0, time.FixedZone("far", 24*3600)),
		time.Date(2015, 3, 9, 12, 0, 0, 0, time.FixedZone("near", -24*3600+1)),
	} {
		want, err := at.MarshalJSON()
		if ok := TimeOK(at); ok != (err == nil) {
			t.Errorf("TimeOK(%v) = %v, MarshalJSON error %v", at, ok, err)
		}
		if err == nil {
			if got := AppendTime(nil, at); !bytes.Equal(got, want) {
				t.Errorf("time %v:\nappend:  %s\nmarshal: %s", at, got, want)
			}
		}
	}
}

// FuzzAppendTime holds AppendTime — the digit-by-digit UTC arm and the
// AppendFormat arm — to time.Time.MarshalJSON on every time it accepts,
// years −1 to 10000, with and without a zone.
func FuzzAppendTime(f *testing.F) {
	f.Add(int64(1425895200), int64(0), 0)
	f.Add(int64(1425895200), int64(120000000), 3600)
	f.Add(int64(-62135596800), int64(999999999), 0) // year 1
	f.Add(int64(-62198755200), int64(1), 0)         // year −1
	f.Add(int64(253402300800), int64(0), 0)         // year 10000
	f.Add(int64(253402300799), int64(999999990), -86399)
	f.Fuzz(func(t *testing.T, sec, nsec int64, zone int) {
		const minSec, maxSec = -62198755200, 253433836800 // years −1 … 10000
		if sec < minSec || sec > maxSec {
			sec = minSec + (sec%(maxSec-minSec)+(maxSec-minSec))%(maxSec-minSec)
		}
		at := time.Unix(sec, nsec%1e9).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("z", zone%(25*3600)))
		}
		want, err := at.MarshalJSON()
		if ok := TimeOK(at); ok != (err == nil) {
			t.Fatalf("TimeOK(%v) = %v, MarshalJSON error %v", at, ok, err)
		}
		if err != nil {
			return
		}
		if got := AppendTime([]byte("x"), at); string(got) != "x"+string(want) {
			t.Errorf("time %v:\nappend:  %s\nmarshal: %s", at, got[1:], want)
		}
	})
}
