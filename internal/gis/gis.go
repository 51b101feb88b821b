// Package gis implements the district's Geographic Information System
// database: a store of georeferenced features (building footprints,
// network routes, device positions) with spatial queries. The paper's
// GIS databases hold "georeferenced information about buildings in the
// district"; the master node's ontology maps entities onto them and
// end-user applications query by area.
//
// The store indexes features in a uniform geographic grid, supports
// bounding-box and radius queries over WGS-84 coordinates, and exports
// features through the GIS Database-proxy in the common data format.
package gis

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Point is a WGS-84 coordinate.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// BBox is a latitude/longitude axis-aligned bounding box.
type BBox struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// Valid reports whether the box is well formed.
func (b BBox) Valid() bool {
	return b.MinLat <= b.MaxLat && b.MinLon <= b.MaxLon &&
		b.MinLat >= -90 && b.MaxLat <= 90 &&
		b.MinLon >= -180 && b.MaxLon <= 180
}

// Contains reports whether the point falls inside the box.
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Expand grows the box to include p.
func (b BBox) Expand(p Point) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Intersects reports whether two boxes overlap.
func (b BBox) Intersects(o BBox) bool {
	return b.MinLat <= o.MaxLat && o.MinLat <= b.MaxLat &&
		b.MinLon <= o.MaxLon && o.MinLon <= b.MaxLon
}

// earthRadiusM is the mean Earth radius in metres.
const earthRadiusM = 6371000.0

// Haversine returns the great-circle distance between two points in
// metres.
func Haversine(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusM * math.Asin(math.Min(1, math.Sqrt(s)))
}

// FeatureKind classifies GIS features.
type FeatureKind string

// Feature kinds stored in the district GIS.
const (
	FeatureBuilding FeatureKind = "building"
	FeatureNetwork  FeatureKind = "network"
	FeatureDevice   FeatureKind = "device"
	FeatureArea     FeatureKind = "area"
)

// Feature is one georeferenced entry.
type Feature struct {
	// ID is the feature identifier, conventionally the ontology URI of
	// the entity it georeferences.
	ID string
	// Kind classifies the feature.
	Kind FeatureKind
	// Name is a human-readable label.
	Name string
	// Footprint is the feature geometry: one point for devices, a
	// polygon ring for buildings and areas, a polyline for networks.
	Footprint []Point
	// Attributes carries free-form GIS attributes.
	Attributes map[string]string
}

// Centroid returns the arithmetic centre of the footprint.
func (f *Feature) Centroid() Point {
	if len(f.Footprint) == 0 {
		return Point{}
	}
	var lat, lon float64
	for _, p := range f.Footprint {
		lat += p.Lat
		lon += p.Lon
	}
	n := float64(len(f.Footprint))
	return Point{Lat: lat / n, Lon: lon / n}
}

// Bounds returns the bounding box of the footprint.
func (f *Feature) Bounds() BBox {
	if len(f.Footprint) == 0 {
		return BBox{}
	}
	b := BBox{MinLat: f.Footprint[0].Lat, MaxLat: f.Footprint[0].Lat,
		MinLon: f.Footprint[0].Lon, MaxLon: f.Footprint[0].Lon}
	for _, p := range f.Footprint[1:] {
		b = b.Expand(p)
	}
	return b
}

// Errors reported by the store.
var (
	ErrEmptyFootprint = errors.New("gis: feature without footprint")
	ErrDuplicateID    = errors.New("gis: duplicate feature id")
	ErrBadBBox        = errors.New("gis: malformed bounding box")
	ErrNotFound       = errors.New("gis: feature not found")
)

// cellKey addresses one grid cell.
type cellKey struct{ row, col int32 }

// Store is the spatially indexed feature database.
type Store struct {
	cellDeg float64

	mu       sync.RWMutex
	version  uint64 // counts mutations; see Version
	features map[string]*Feature
	grid     map[cellKey][]string
	// large holds features whose bounds cover more cells than
	// maxCellsPerFeature; they are scanned linearly instead of indexed.
	large map[string]struct{}
}

// maxCellsPerFeature bounds the grid entries one feature may occupy.
const maxCellsPerFeature = 4096

// NewStore creates a store with the given grid cell size in degrees.
// Zero picks the default (0.005 degrees, roughly 500 m of latitude —
// city-block granularity).
func NewStore(cellDeg float64) *Store {
	if cellDeg <= 0 {
		cellDeg = 0.005
	}
	return &Store{
		cellDeg:  cellDeg,
		features: make(map[string]*Feature),
		grid:     make(map[cellKey][]string),
		large:    make(map[string]struct{}),
	}
}

func (s *Store) cellOf(p Point) cellKey {
	return cellKey{
		row: int32(math.Floor(p.Lat / s.cellDeg)),
		col: int32(math.Floor(p.Lon / s.cellDeg)),
	}
}

// cellsOf enumerates the grid cells a bounding box covers.
func (s *Store) cellsOf(b BBox) []cellKey {
	lo := s.cellOf(Point{b.MinLat, b.MinLon})
	hi := s.cellOf(Point{b.MaxLat, b.MaxLon})
	out := make([]cellKey, 0, int(hi.row-lo.row+1)*int(hi.col-lo.col+1))
	for r := lo.row; r <= hi.row; r++ {
		for c := lo.col; c <= hi.col; c++ {
			out = append(out, cellKey{r, c})
		}
	}
	return out
}

// Add inserts a feature.
func (s *Store) Add(f Feature) error {
	if len(f.Footprint) == 0 {
		return ErrEmptyFootprint
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.features[f.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateID, f.ID)
	}
	s.version++
	cp := f
	cp.Footprint = append([]Point(nil), f.Footprint...)
	s.features[f.ID] = &cp
	if s.cellCount(cp.Bounds()) > maxCellsPerFeature {
		s.large[f.ID] = struct{}{}
		return nil
	}
	for _, cell := range s.cellsOf(cp.Bounds()) {
		s.grid[cell] = append(s.grid[cell], f.ID)
	}
	return nil
}

// cellCount reports how many grid cells a box covers.
func (s *Store) cellCount(b BBox) int64 {
	lo := s.cellOf(Point{b.MinLat, b.MinLon})
	hi := s.cellOf(Point{b.MaxLat, b.MaxLon})
	return (int64(hi.row-lo.row) + 1) * (int64(hi.col-lo.col) + 1)
}

// Remove deletes a feature by ID.
func (s *Store) Remove(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.features[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.version++
	delete(s.features, id)
	if _, isLarge := s.large[id]; isLarge {
		delete(s.large, id)
		return nil
	}
	for _, cell := range s.cellsOf(f.Bounds()) {
		ids := s.grid[cell]
		for i, fid := range ids {
			if fid == id {
				s.grid[cell] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(s.grid[cell]) == 0 {
			delete(s.grid, cell)
		}
	}
	return nil
}

// Version counts the store's mutations: two reads under one version
// saw the same features (the GIS proxy derives its ETag from it).
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Get returns a copy of the feature with the given ID.
func (s *Store) Get(id string) (Feature, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.features[id]
	if !ok {
		return Feature{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return *f, nil
}

// QueryBBox returns the features whose bounds intersect the box, sorted
// by ID for determinism. Small boxes walk the grid index; boxes covering
// more cells than there are features (e.g. a whole-world query) fall
// back to a linear scan, which is cheaper than enumerating cells.
func (s *Store) QueryBBox(b BBox) ([]Feature, error) {
	if !b.Valid() {
		return nil, ErrBadBBox
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := s.cellOf(Point{b.MinLat, b.MinLon})
	hi := s.cellOf(Point{b.MaxLat, b.MaxLon})
	cells := (int64(hi.row-lo.row) + 1) * (int64(hi.col-lo.col) + 1)
	var out []Feature
	if cells > int64(len(s.features))+64 {
		for _, f := range s.features {
			if f.Bounds().Intersects(b) {
				out = append(out, *f)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out, nil
	}
	seen := make(map[string]struct{})
	for _, cell := range s.cellsOf(b) {
		for _, id := range s.grid[cell] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			f := s.features[id]
			if f.Bounds().Intersects(b) {
				out = append(out, *f)
			}
		}
	}
	for id := range s.large {
		f := s.features[id]
		if f.Bounds().Intersects(b) {
			out = append(out, *f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// QueryRadius returns the features whose centroid lies within radius
// metres of centre, sorted by distance.
func (s *Store) QueryRadius(centre Point, radiusM float64) ([]Feature, error) {
	if radiusM <= 0 {
		return nil, fmt.Errorf("gis: non-positive radius %v", radiusM)
	}
	// Over-approximate the radius with a degree box, then filter.
	dLat := radiusM / earthRadiusM * 180 / math.Pi
	cos := math.Cos(centre.Lat * math.Pi / 180)
	if cos < 0.01 {
		cos = 0.01
	}
	dLon := dLat / cos
	box := BBox{
		MinLat: centre.Lat - dLat, MaxLat: centre.Lat + dLat,
		MinLon: centre.Lon - dLon, MaxLon: centre.Lon + dLon,
	}
	candidates, err := s.QueryBBox(box)
	if err != nil {
		return nil, err
	}
	type scored struct {
		f Feature
		d float64
	}
	var hits []scored
	for _, f := range candidates {
		if d := Haversine(centre, f.Centroid()); d <= radiusM {
			hits = append(hits, scored{f, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].d < hits[j].d })
	out := make([]Feature, len(hits))
	for i, h := range hits {
		out[i] = h.f
	}
	return out, nil
}

// ByKind returns all features of a kind, sorted by ID.
func (s *Store) ByKind(kind FeatureKind) []Feature {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Feature
	for _, f := range s.features {
		if f.Kind == kind {
			out = append(out, *f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of stored features.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.features)
}
