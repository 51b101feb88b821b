package ontology

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dataformat"
)

// buildSample creates a small two-district forest.
func buildSample(t *testing.T) *Ontology {
	t.Helper()
	o := New()
	turin, err := o.AddDistrict("turin", "Torino")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetProperty(turin, PropGISURI, "http://gis.turin/"); err != nil {
		t.Fatal(err)
	}
	b1, err := o.AddEntity(turin, KindBuilding, "b01", "DAUIN", 45.0628, 7.6624)
	if err != nil {
		t.Fatal(err)
	}
	_ = o.SetProperty(b1, PropProxyURI, "http://bim-b01/")
	b2, err := o.AddEntity(turin, KindBuilding, "b02", "Library", 45.07, 7.69)
	if err != nil {
		t.Fatal(err)
	}
	_ = o.SetProperty(b2, PropProxyURI, "http://bim-b02/")
	n1, err := o.AddEntity(turin, KindNetwork, "dh1", "District Heating", 45.065, 7.67)
	if err != nil {
		t.Fatal(err)
	}
	_ = o.SetProperty(n1, PropProxyURI, "http://sim-dh1/")
	d1, err := o.AddDevice(b1, "t-1", "Temp Lab 1", 45.0628, 7.6624)
	if err != nil {
		t.Fatal(err)
	}
	_ = o.SetProperty(d1, PropProxyURI, "http://devproxy-1/")
	_ = o.SetProperty(d1, PropProtocol, "zigbee")
	if _, err := o.AddDevice(b1, "h-1", "Hum Lab 1", 45.0628, 7.6624); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddDistrict("milan", "Milano"); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestURIHelpers(t *testing.T) {
	if got := DistrictURI("turin"); got != "urn:district:turin" {
		t.Errorf("DistrictURI = %q", got)
	}
	if got := EntityURI("turin", KindBuilding, "b01"); got != "urn:district:turin/building:b01" {
		t.Errorf("EntityURI = %q", got)
	}
	if got := DeviceURI("urn:district:turin/building:b01", "t-1"); got != "urn:district:turin/building:b01/device:t-1" {
		t.Errorf("DeviceURI = %q", got)
	}
}

func TestParseURI(t *testing.T) {
	d, segs, err := ParseURI("urn:district:turin/building:b01/device:t-1")
	if err != nil || d != "turin" || len(segs) != 2 || segs[1] != "device:t-1" {
		t.Errorf("ParseURI = %q %v %v", d, segs, err)
	}
	if _, _, err := ParseURI("http://not-a-urn/"); err == nil {
		t.Error("bad prefix accepted")
	}
	if _, _, err := ParseURI("urn:district:"); err == nil {
		t.Error("empty district accepted")
	}
}

func TestBuildForest(t *testing.T) {
	o := buildSample(t)
	if o.Len() != 7 {
		t.Errorf("Len = %d, want 7", o.Len())
	}
	if got := o.Districts(); len(got) != 2 || got[0] != "urn:district:milan" {
		t.Errorf("Districts = %v (want sorted)", got)
	}
	kids, err := o.Children("urn:district:turin/building:b01")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0].Kind != KindDevice {
		t.Errorf("Children = %+v", kids)
	}
}

func TestAddRejections(t *testing.T) {
	o := buildSample(t)
	turin := "urn:district:turin"
	if _, err := o.AddDistrict("turin", "again"); !errors.Is(err, ErrDuplicateURI) {
		t.Errorf("duplicate district: %v", err)
	}
	if _, err := o.AddEntity(turin, KindBuilding, "b01", "again", 0, 0); !errors.Is(err, ErrDuplicateURI) {
		t.Errorf("duplicate building: %v", err)
	}
	if _, err := o.AddEntity(turin, KindDevice, "d", "bad kind", 0, 0); !errors.Is(err, ErrBadParent) {
		t.Errorf("device as entity: %v", err)
	}
	if _, err := o.AddEntity("urn:district:ghost", KindBuilding, "b", "x", 0, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown district: %v", err)
	}
	if _, err := o.AddEntity("urn:district:turin/building:b01", KindBuilding, "b", "nested", 0, 0); !errors.Is(err, ErrBadParent) {
		t.Errorf("building under building: %v", err)
	}
	if _, err := o.AddDevice(turin, "d", "device under district", 0, 0); !errors.Is(err, ErrBadParent) {
		t.Errorf("device under district: %v", err)
	}
	if _, err := o.AddDevice("urn:district:turin/building:b01", "t-1", "dup", 0, 0); !errors.Is(err, ErrDuplicateURI) {
		t.Errorf("duplicate device: %v", err)
	}
	if err := o.SetProperty("urn:ghost", "a", "b"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SetProperty unknown: %v", err)
	}
}

func TestResolveAreaWholeDistrict(t *testing.T) {
	o := buildSample(t)
	got, err := o.ResolveArea("turin", Area{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("resolutions = %d, want 3 (2 buildings + 1 network)", len(got))
	}
	// Sorted children: b01, b02, dh1 — network URIs sort after buildings.
	if got[0].URI != "urn:district:turin/building:b01" || got[0].ProxyURI != "http://bim-b01/" {
		t.Errorf("first resolution = %+v", got[0])
	}
	// Each entity carries exactly what ResolveDevices answers for it.
	for _, r := range got {
		want, err := o.ResolveDevices(r.URI)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Devices, want) {
			t.Errorf("devices of %s = %+v, want %+v", r.URI, r.Devices, want)
		}
	}
	if len(got[0].Devices) != 2 || got[0].Devices[1].Extra[PropProtocol] != "zigbee" {
		t.Errorf("inline devices of b01 = %+v", got[0].Devices)
	}
}

func TestResolveAreaFiltering(t *testing.T) {
	o := buildSample(t)
	// Box around b01 only.
	got, err := o.ResolveArea("turin", Area{MinLat: 45.06, MinLon: 7.66, MaxLat: 45.065, MaxLon: 7.665})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "DAUIN" {
		t.Fatalf("filtered = %+v", got)
	}
	if _, err := o.ResolveArea("ghost", Area{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown district: %v", err)
	}
}

func TestResolveDevices(t *testing.T) {
	o := buildSample(t)
	got, err := o.ResolveDevices("urn:district:turin/building:b01")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("devices = %+v", got)
	}
	// Sorted by URI: h-1 before t-1.
	if got[0].URI != "urn:district:turin/building:b01/device:h-1" {
		t.Errorf("first device = %+v", got[0])
	}
	if got[1].ProxyURI != "http://devproxy-1/" || got[1].Extra[PropProtocol] != "zigbee" {
		t.Errorf("device resolution = %+v", got[1])
	}
}

func TestEntityConversion(t *testing.T) {
	o := buildSample(t)
	e, err := o.Entity("urn:district:turin")
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != dataformat.EntityDistrict || len(e.Children) != 3 {
		t.Fatalf("entity = %+v", e)
	}
	if v, ok := e.Prop(PropGISURI); !ok || v != "http://gis.turin/" {
		t.Errorf("district property lost: %v %v", v, ok)
	}
	b01 := e.Children[0]
	if len(b01.Children) != 2 || b01.Location == nil {
		t.Errorf("building entity = %+v", b01)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("converted entity invalid: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	o := buildSample(t)
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != o.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), o.Len())
	}
	if got := restored.Districts(); len(got) != 2 {
		t.Errorf("Districts = %v", got)
	}
	res, err := restored.ResolveDevices("urn:district:turin/building:b01")
	if err != nil || len(res) != 2 {
		t.Errorf("ResolveDevices after restore: %v %v", res, err)
	}
	// Serialization must be deterministic.
	again, _ := json.Marshal(restored)
	if string(again) != string(data) {
		t.Error("serialization not deterministic")
	}
}

func TestUnmarshalRejectsDanglingRefs(t *testing.T) {
	bad := `{"nodes":[{"uri":"urn:district:x","kind":"district","children":["urn:district:x/building:ghost"]}]}`
	o := New()
	if err := json.Unmarshal([]byte(bad), o); err == nil {
		t.Error("dangling child accepted")
	}
	bad = `{"nodes":[{"uri":"urn:district:x/building:b","kind":"building","parent":"urn:district:ghost"}]}`
	o = New()
	if err := json.Unmarshal([]byte(bad), o); err == nil {
		t.Error("dangling parent accepted")
	}
}

func TestGetReturnsCopies(t *testing.T) {
	o := buildSample(t)
	n, err := o.Get("urn:district:turin")
	if err != nil {
		t.Fatal(err)
	}
	n.Properties[PropGISURI] = "http://tampered/"
	n.Children[0] = "urn:tampered"
	if v, _ := o.Property("urn:district:turin", PropGISURI); v != "http://gis.turin/" {
		t.Error("Get leaked internal property map")
	}
	kids, _ := o.Children("urn:district:turin")
	if kids[0].URI == "urn:tampered" {
		t.Error("Get leaked internal children slice")
	}
}

// Property: for any set of buildings at distinct positions, ResolveArea
// with a box around a single building returns exactly that building.
func TestResolveAreaExactProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		o := New()
		turin, err := o.AddDistrict("turin", "Torino")
		if err != nil {
			return false
		}
		// Distinct grid positions.
		for i := 0; i < n; i++ {
			lat := 45.0 + float64(i)*0.01
			lon := 7.0 + float64(i%7)*0.01
			if _, err := o.AddEntity(turin, KindBuilding, fmt.Sprintf("b%02d", i), "B", lat, lon); err != nil {
				return false
			}
		}
		pick := int(seed%int64(n)+int64(n)) % n
		lat := 45.0 + float64(pick)*0.01
		lon := 7.0 + float64(pick%7)*0.01
		got, err := o.ResolveArea("turin", Area{
			MinLat: lat - 0.001, MinLon: lon - 0.001,
			MaxLat: lat + 0.001, MaxLon: lon + 0.001,
		})
		if err != nil {
			return false
		}
		return len(got) == 1 && got[0].URI == EntityURI("turin", KindBuilding, fmt.Sprintf("b%02d", pick))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
