// Package ontology implements the master node's ontology: the structure
// of one or more districts, "each one structured as a tree" (paper §II).
// The root node of each tree holds the district's global properties (its
// name, the URIs of the GIS Database-proxies' web services); intermediate
// nodes represent buildings and energy-distribution networks with their
// BIM/SIM Database-proxy URIs and GIS mappings; leaf nodes represent the
// devices placed in each intermediate entity.
//
// The master node consults this structure to answer area queries with
// the proxy URIs the end-user application should fetch from: each
// intermediate entity's own and, under it, its device leaves'.
package ontology

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/dataformat"
)

// Kind classifies ontology nodes.
type Kind string

// Node kinds, mirroring the paper's tree: district roots, building and
// network intermediates, device leaves.
const (
	KindDistrict Kind = "district"
	KindBuilding Kind = "building"
	KindNetwork  Kind = "network"
	KindDevice   Kind = "device"
)

// Well-known property names attached to ontology nodes.
const (
	PropProxyURI   = "proxy.uri"   // web service of the entity's proxy
	PropGISURI     = "gis.uri"     // district GIS Database-proxy
	PropMeasureURI = "measure.uri" // district measurements DB proxy
	PropGISFeature = "gis.feature" // feature ID in the GIS database
	PropProtocol   = "protocol"    // device native protocol
	PropQuantities = "quantities"  // comma-joined sensed quantities
)

// URI construction. District entity URIs follow the
// urn:district:<district>/<kind>:<id> convention used across the system.

// DistrictURI returns the root URI of a district.
func DistrictURI(district string) string {
	return "urn:district:" + district
}

// EntityURI returns the URI of an intermediate entity in a district.
func EntityURI(district string, kind Kind, id string) string {
	return fmt.Sprintf("%s/%s:%s", DistrictURI(district), kind, id)
}

// DeviceURI returns the URI of a device under an intermediate entity.
func DeviceURI(parentURI, deviceID string) string {
	return fmt.Sprintf("%s/device:%s", parentURI, deviceID)
}

// Node is one ontology entry.
type Node struct {
	URI  string `json:"uri"`
	Kind Kind   `json:"kind"`
	Name string `json:"name,omitempty"`
	// Lat/Lon georeference the entity (building centroid, plant
	// position, device placement).
	Lat float64 `json:"lat,omitempty"`
	Lon float64 `json:"lon,omitempty"`
	// Properties carries the URIs and annotations the paper stores in
	// the ontology (proxy web service URIs, GIS mappings, ...).
	Properties map[string]string `json:"properties,omitempty"`
	// Children are the URIs of child nodes, sorted.
	Children []string `json:"children,omitempty"`
	// Parent is the URI of the parent node ("" for districts).
	Parent string `json:"parent,omitempty"`
}

// Errors reported by the ontology.
var (
	ErrUnknownNode  = errors.New("ontology: unknown node")
	ErrDuplicateURI = errors.New("ontology: duplicate URI")
	ErrBadParent    = errors.New("ontology: invalid parent for node kind")
)

// Ontology is the thread-safe district forest.
type Ontology struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	roots []string // district URIs, sorted
}

// New creates an empty ontology.
func New() *Ontology {
	return &Ontology{nodes: make(map[string]*Node)}
}

// AddDistrict creates a district root and returns its URI.
func (o *Ontology) AddDistrict(district, name string) (string, error) {
	uri := DistrictURI(district)
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.nodes[uri]; dup {
		return "", fmt.Errorf("%w: %s", ErrDuplicateURI, uri)
	}
	o.nodes[uri] = &Node{URI: uri, Kind: KindDistrict, Name: name, Properties: map[string]string{}}
	o.roots = append(o.roots, uri)
	sort.Strings(o.roots)
	return uri, nil
}

// AddEntity creates a building or network node under a district root.
func (o *Ontology) AddEntity(districtURI string, kind Kind, id, name string, lat, lon float64) (string, error) {
	if kind != KindBuilding && kind != KindNetwork {
		return "", fmt.Errorf("%w: %q under district", ErrBadParent, kind)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	parent, ok := o.nodes[districtURI]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownNode, districtURI)
	}
	if parent.Kind != KindDistrict {
		return "", fmt.Errorf("%w: parent %s is a %s", ErrBadParent, districtURI, parent.Kind)
	}
	uri := fmt.Sprintf("%s/%s:%s", districtURI, kind, id)
	if _, dup := o.nodes[uri]; dup {
		return "", fmt.Errorf("%w: %s", ErrDuplicateURI, uri)
	}
	o.nodes[uri] = &Node{
		URI: uri, Kind: kind, Name: name, Lat: lat, Lon: lon,
		Parent: districtURI, Properties: map[string]string{},
	}
	parent.Children = insertSorted(parent.Children, uri)
	return uri, nil
}

// AddDevice creates a device leaf under a building or network node.
func (o *Ontology) AddDevice(parentURI, deviceID, name string, lat, lon float64) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	parent, ok := o.nodes[parentURI]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownNode, parentURI)
	}
	if parent.Kind != KindBuilding && parent.Kind != KindNetwork {
		return "", fmt.Errorf("%w: device under %s", ErrBadParent, parent.Kind)
	}
	uri := DeviceURI(parentURI, deviceID)
	if _, dup := o.nodes[uri]; dup {
		return "", fmt.Errorf("%w: %s", ErrDuplicateURI, uri)
	}
	o.nodes[uri] = &Node{
		URI: uri, Kind: KindDevice, Name: name, Lat: lat, Lon: lon,
		Parent: parentURI, Properties: map[string]string{},
	}
	parent.Children = insertSorted(parent.Children, uri)
	return uri, nil
}

func insertSorted(list []string, s string) []string {
	i := sort.SearchStrings(list, s)
	list = append(list, "")
	copy(list[i+1:], list[i:])
	list[i] = s
	return list
}

// SetProperty sets one property on a node.
func (o *Ontology) SetProperty(uri, name, value string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, ok := o.nodes[uri]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, uri)
	}
	n.Properties[name] = value
	return nil
}

// Property reads one property of a node.
func (o *Ontology) Property(uri, name string) (string, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n, ok := o.nodes[uri]
	if !ok {
		return "", false
	}
	v, ok := n.Properties[name]
	return v, ok
}

// Get returns a copy of a node.
func (o *Ontology) Get(uri string) (Node, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n, ok := o.nodes[uri]
	if !ok {
		return Node{}, fmt.Errorf("%w: %s", ErrUnknownNode, uri)
	}
	return copyNode(n), nil
}

func copyNode(n *Node) Node {
	cp := *n
	cp.Properties = make(map[string]string, len(n.Properties))
	for k, v := range n.Properties {
		cp.Properties[k] = v
	}
	cp.Children = append([]string(nil), n.Children...)
	return cp
}

// Districts lists district root URIs.
func (o *Ontology) Districts() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return append([]string(nil), o.roots...)
}

// Children returns copies of a node's children.
func (o *Ontology) Children(uri string) ([]Node, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n, ok := o.nodes[uri]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, uri)
	}
	out := make([]Node, 0, len(n.Children))
	for _, c := range n.Children {
		out = append(out, copyNode(o.nodes[c]))
	}
	return out, nil
}

// Len reports the number of nodes.
func (o *Ontology) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.nodes)
}

// Area is a latitude/longitude box used by area queries.
type Area struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// contains reports whether the area includes the point.
func (a Area) contains(lat, lon float64) bool {
	return lat >= a.MinLat && lat <= a.MaxLat && lon >= a.MinLon && lon <= a.MaxLon
}

// Empty reports whether the area is the zero box.
func (a Area) Empty() bool {
	return a == Area{}
}

// Resolution is one entity the master returns for an area query: the
// entity's ontology description plus the proxy URI to fetch it from —
// exactly the redirection contract of the paper.
type Resolution struct {
	URI      string            `json:"uri"`
	Kind     Kind              `json:"kind"`
	Name     string            `json:"name,omitempty"`
	Lat      float64           `json:"lat,omitempty"`
	Lon      float64           `json:"lon,omitempty"`
	ProxyURI string            `json:"proxyUri,omitempty"`
	Extra    map[string]string `json:"extra,omitempty"`
	// Devices are the entity's device leaves (ResolveArea fills them).
	Devices []Resolution `json:"devices,omitempty"`
}

// ResolveArea returns the intermediate entities (buildings, networks) of
// a district that fall inside the area, each with its proxy URI; an
// empty area matches the whole district. Each entity carries its device
// leaves (what ResolveDevices answers for it), so the end-user
// application learns the area's device proxies in the same answer.
func (o *Ontology) ResolveArea(district string, area Area) ([]Resolution, error) {
	rootURI := DistrictURI(district)
	o.mu.RLock()
	defer o.mu.RUnlock()
	root, ok := o.nodes[rootURI]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, rootURI)
	}
	var out []Resolution
	for _, childURI := range root.Children {
		n := o.nodes[childURI]
		if !area.Empty() && !area.contains(n.Lat, n.Lon) {
			continue
		}
		r := resolutionOf(n)
		r.Devices = o.devicesLocked(n)
		out = append(out, r)
	}
	return out, nil
}

// ResolveDevices returns the device leaves under an entity, each with
// its device-proxy URI.
func (o *Ontology) ResolveDevices(entityURI string) ([]Resolution, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n, ok := o.nodes[entityURI]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, entityURI)
	}
	return o.devicesLocked(n), nil
}

// devicesLocked resolves the device leaves directly under n.
func (o *Ontology) devicesLocked(n *Node) []Resolution {
	var out []Resolution
	for _, childURI := range n.Children {
		c := o.nodes[childURI]
		if c.Kind == KindDevice {
			out = append(out, resolutionOf(c))
		}
	}
	return out
}

func resolutionOf(n *Node) Resolution {
	r := Resolution{URI: n.URI, Kind: n.Kind, Name: n.Name, Lat: n.Lat, Lon: n.Lon}
	extra := make(map[string]string)
	for k, v := range n.Properties {
		if k == PropProxyURI {
			r.ProxyURI = v
			continue
		}
		extra[k] = v
	}
	if len(extra) > 0 {
		r.Extra = extra
	}
	return r
}

// Entity converts a subtree to the common-format entity representation,
// recursively including children.
func (o *Ontology) Entity(uri string) (dataformat.Entity, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n, ok := o.nodes[uri]
	if !ok {
		return dataformat.Entity{}, fmt.Errorf("%w: %s", ErrUnknownNode, uri)
	}
	return o.entityLocked(n), nil
}

func (o *Ontology) entityLocked(n *Node) dataformat.Entity {
	e := dataformat.Entity{
		URI:  n.URI,
		Kind: dataformat.EntityKind(n.Kind),
		Name: n.Name,
	}
	if n.Lat != 0 || n.Lon != 0 {
		e.Location = &dataformat.Location{Latitude: n.Lat, Longitude: n.Lon}
	}
	keys := make([]string, 0, len(n.Properties))
	for k := range n.Properties {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Properties = append(e.Properties, dataformat.Property{Name: k, Value: n.Properties[k], Type: "string"})
	}
	for _, c := range n.Children {
		e.Children = append(e.Children, o.entityLocked(o.nodes[c]))
	}
	return e
}

// MarshalJSON serializes the whole forest deterministically.
func (o *Ontology) MarshalJSON() ([]byte, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	uris := make([]string, 0, len(o.nodes))
	for uri := range o.nodes {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	nodes := make([]*Node, len(uris))
	for i, uri := range uris {
		nodes[i] = o.nodes[uri]
	}
	return json.Marshal(struct {
		Nodes []*Node `json:"nodes"`
	}{nodes})
}

// UnmarshalJSON restores a forest serialized by MarshalJSON.
func (o *Ontology) UnmarshalJSON(data []byte) error {
	var wire struct {
		Nodes []*Node `json:"nodes"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nodes = make(map[string]*Node, len(wire.Nodes))
	o.roots = nil
	for _, n := range wire.Nodes {
		if n.URI == "" {
			return fmt.Errorf("ontology: node without URI in serialized forest")
		}
		if n.Properties == nil {
			n.Properties = map[string]string{}
		}
		o.nodes[n.URI] = n
		if n.Kind == KindDistrict {
			o.roots = append(o.roots, n.URI)
		}
	}
	sort.Strings(o.roots)
	// Verify referential integrity.
	for _, n := range o.nodes {
		for _, c := range n.Children {
			if _, ok := o.nodes[c]; !ok {
				return fmt.Errorf("%w: child %s of %s", ErrUnknownNode, c, n.URI)
			}
		}
		if n.Parent != "" {
			if _, ok := o.nodes[n.Parent]; !ok {
				return fmt.Errorf("%w: parent %s of %s", ErrUnknownNode, n.Parent, n.URI)
			}
		}
	}
	return nil
}

// ParseURI splits an entity URI into its district and path segments
// ("urn:district:turin/building:b01/device:t1" -> "turin",
// ["building:b01", "device:t1"]).
func ParseURI(uri string) (district string, segments []string, err error) {
	const prefix = "urn:district:"
	if !strings.HasPrefix(uri, prefix) {
		return "", nil, fmt.Errorf("ontology: URI %q lacks %q prefix", uri, prefix)
	}
	rest := strings.TrimPrefix(uri, prefix)
	parts := strings.Split(rest, "/")
	if parts[0] == "" {
		return "", nil, fmt.Errorf("ontology: URI %q has empty district", uri)
	}
	return parts[0], parts[1:], nil
}
