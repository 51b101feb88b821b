// Package sim implements the System Information Model database of the
// infrastructure: one per energy-distribution network, as in the paper
// ("a database ... for each distribution network (System Information
// Model, SIM)"). It models a district heating (or electric) network as a
// directed tree rooted at the plant, with pipes/feeders as edges and
// substations/consumers as leaves, plus a steady-state flow and loss
// solver so the network data the Database-proxy serves is physically
// coherent rather than random.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// NetworkKind distinguishes heating from electric networks.
type NetworkKind string

// Supported network kinds.
const (
	Heating  NetworkKind = "heating"
	Electric NetworkKind = "electric"
)

// NodeKind classifies network nodes.
type NodeKind string

// Node kinds.
const (
	NodePlant      NodeKind = "plant"      // source
	NodeJunction   NodeKind = "junction"   // internal branch point
	NodeSubstation NodeKind = "substation" // consumer connection
)

// Node is one vertex of the network.
type Node struct {
	ID   string
	Kind NodeKind
	Name string
	// Lat/Lon georeference the node for the GIS mapping.
	Lat, Lon float64
	// DemandKW is the connected load at substations (0 elsewhere).
	DemandKW float64
	// Building is the ontology URI of the served building, if any.
	Building string
}

// Edge is one directed pipe or feeder from Parent to Child.
type Edge struct {
	ID      string
	Parent  string
	Child   string
	LengthM float64
	// LossPerKM is the fractional energy loss per kilometre (heat loss
	// for heating networks, resistive loss for electric ones).
	LossPerKM float64
}

// Network is one distribution network's SIM.
type Network struct {
	ID    string
	Name  string
	Kind  NetworkKind
	Nodes []Node
	Edges []Edge
}

// Errors reported by validation and the solver.
var (
	ErrInvalidNetwork = errors.New("sim: invalid network")
	ErrNotTree        = errors.New("sim: network is not a tree rooted at the plant")
)

// Validate checks the structural invariants: exactly one plant, unique
// IDs, edges referencing known nodes, non-negative physics, and a tree
// topology reaching every node from the plant.
func (n *Network) Validate() error {
	if n.ID == "" {
		return fmt.Errorf("%w: network without ID", ErrInvalidNetwork)
	}
	byID := make(map[string]*Node, len(n.Nodes))
	plants := 0
	for i := range n.Nodes {
		node := &n.Nodes[i]
		if node.ID == "" {
			return fmt.Errorf("%w: node %d without ID", ErrInvalidNetwork, i)
		}
		if _, dup := byID[node.ID]; dup {
			return fmt.Errorf("%w: duplicate node ID %q", ErrInvalidNetwork, node.ID)
		}
		byID[node.ID] = node
		if node.Kind == NodePlant {
			plants++
		}
		if node.DemandKW < 0 {
			return fmt.Errorf("%w: node %q negative demand", ErrInvalidNetwork, node.ID)
		}
	}
	if plants != 1 {
		return fmt.Errorf("%w: %d plants (want exactly 1)", ErrInvalidNetwork, plants)
	}
	parentOf := make(map[string]string, len(n.Edges))
	children := make(map[string][]string)
	for i := range n.Edges {
		e := &n.Edges[i]
		if e.ID == "" {
			return fmt.Errorf("%w: edge %d without ID", ErrInvalidNetwork, i)
		}
		if _, ok := byID[e.Parent]; !ok {
			return fmt.Errorf("%w: edge %q parent %q unknown", ErrInvalidNetwork, e.ID, e.Parent)
		}
		if _, ok := byID[e.Child]; !ok {
			return fmt.Errorf("%w: edge %q child %q unknown", ErrInvalidNetwork, e.ID, e.Child)
		}
		if e.LengthM < 0 || e.LossPerKM < 0 {
			return fmt.Errorf("%w: edge %q negative physics", ErrInvalidNetwork, e.ID)
		}
		if _, dup := parentOf[e.Child]; dup {
			return fmt.Errorf("%w: node %q has two parents", ErrNotTree, e.Child)
		}
		parentOf[e.Child] = e.Parent
		children[e.Parent] = append(children[e.Parent], e.Child)
	}
	// Reachability from the plant covers all nodes (tree, no cycles).
	root := n.Plant().ID
	if _, hasParent := parentOf[root]; hasParent {
		return fmt.Errorf("%w: plant has a parent", ErrNotTree)
	}
	visited := map[string]bool{}
	stack := []string{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[cur] {
			return fmt.Errorf("%w: cycle through %q", ErrNotTree, cur)
		}
		visited[cur] = true
		stack = append(stack, children[cur]...)
	}
	if len(visited) != len(n.Nodes) {
		return fmt.Errorf("%w: %d of %d nodes reachable from plant", ErrNotTree, len(visited), len(n.Nodes))
	}
	return nil
}

// Plant returns the network's source node (zero Node if absent).
func (n *Network) Plant() Node {
	for _, node := range n.Nodes {
		if node.Kind == NodePlant {
			return node
		}
	}
	return Node{}
}

// NodeByID finds a node.
func (n *Network) NodeByID(id string) (Node, bool) {
	for _, node := range n.Nodes {
		if node.ID == id {
			return node, true
		}
	}
	return Node{}, false
}

// TotalDemandKW sums the connected substation load.
func (n *Network) TotalDemandKW() float64 {
	var total float64
	for _, node := range n.Nodes {
		total += node.DemandKW
	}
	return total
}

// EdgeFlow is the solved state of one edge.
type EdgeFlow struct {
	EdgeID string
	// FlowKW is the power entering the edge at its parent end.
	FlowKW float64
	// LossKW is the power lost along the edge.
	LossKW float64
}

// Solution is a steady-state network solution.
type Solution struct {
	// PlantOutputKW is the power the plant must inject to cover demand
	// plus distribution losses.
	PlantOutputKW float64
	// DeliveredKW is the total power delivered at substations.
	DeliveredKW float64
	// LossKW is the total distribution loss.
	LossKW float64
	// Flows lists the per-edge flows, sorted by edge ID.
	Flows []EdgeFlow
}

// Efficiency returns delivered power over plant output (0 when idle).
func (s *Solution) Efficiency() float64 {
	if s.PlantOutputKW == 0 {
		return 0
	}
	return s.DeliveredKW / s.PlantOutputKW
}

// Solve computes steady-state edge flows for the current demands by a
// post-order accumulation from the leaves: an edge carries its subtree's
// delivered demand plus downstream losses, then loses its own share
// (flow_in = flow_out / (1 - lossFraction)).
func (n *Network) Solve() (*Solution, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	children := make(map[string][]Edge)
	for _, e := range n.Edges {
		children[e.Parent] = append(children[e.Parent], e)
	}
	demand := make(map[string]float64, len(n.Nodes))
	for _, node := range n.Nodes {
		demand[node.ID] = node.DemandKW
	}
	sol := &Solution{}

	// inflow returns the power that must enter node `id` to serve its
	// own demand and its subtree, accumulating per-edge flows.
	var inflow func(id string) float64
	inflow = func(id string) float64 {
		need := demand[id]
		sol.DeliveredKW += demand[id]
		for _, e := range children[id] {
			childNeed := inflow(e.Child)
			lossFrac := e.LossPerKM * e.LengthM / 1000
			if lossFrac >= 0.999 {
				lossFrac = 0.999 // clamp pathological inputs
			}
			flowIn := childNeed / (1 - lossFrac)
			sol.Flows = append(sol.Flows, EdgeFlow{
				EdgeID: e.ID,
				FlowKW: flowIn,
				LossKW: flowIn - childNeed,
			})
			sol.LossKW += flowIn - childNeed
			need += flowIn
		}
		return need
	}
	sol.PlantOutputKW = inflow(n.Plant().ID)
	sort.Slice(sol.Flows, func(i, j int) bool { return sol.Flows[i].EdgeID < sol.Flows[j].EdgeID })
	return sol, nil
}

// SetDemand updates the demand of a substation and reports whether the
// node exists and is a substation.
func (n *Network) SetDemand(nodeID string, demandKW float64) bool {
	for i := range n.Nodes {
		if n.Nodes[i].ID == nodeID && n.Nodes[i].Kind == NodeSubstation {
			n.Nodes[i].DemandKW = demandKW
			return true
		}
	}
	return false
}

// SynthOptions parameterize the synthetic network generator standing in
// for the utility's SIM exports (DESIGN.md S10).
type SynthOptions struct {
	ID          string
	Kind        NetworkKind
	Substations int // leaves; zero means 8
	Branching   int // junction fan-out; zero means 3
	Seed        int64
}

// meanDemandKW is the mean demand of a synthetic substation.
const meanDemandKW = 150

// Synthesize builds a deterministic, valid radial network: a plant, a
// layer of junctions, and substations attached breadth-first.
func Synthesize(opts SynthOptions) *Network {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Substations <= 0 {
		opts.Substations = 8
	}
	if opts.Branching <= 0 {
		opts.Branching = 3
	}
	if opts.Kind == "" {
		opts.Kind = Heating
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("net%03d", rng.Intn(1000))
	}
	n := &Network{ID: opts.ID, Name: "Network " + opts.ID, Kind: opts.Kind}
	plantID := opts.ID + "-plant"
	n.Nodes = append(n.Nodes, Node{
		ID: plantID, Kind: NodePlant, Name: "Plant",
		Lat: 45.05 + rng.Float64()*0.04, Lon: 7.62 + rng.Float64()*0.08,
	})
	nJunctions := (opts.Substations + opts.Branching - 1) / opts.Branching
	junctionIDs := make([]string, 0, nJunctions)
	for j := 0; j < nJunctions; j++ {
		id := fmt.Sprintf("%s-j%02d", opts.ID, j)
		junctionIDs = append(junctionIDs, id)
		n.Nodes = append(n.Nodes, Node{
			ID: id, Kind: NodeJunction, Name: fmt.Sprintf("Junction %d", j),
			Lat: 45.05 + rng.Float64()*0.04, Lon: 7.62 + rng.Float64()*0.08,
		})
		n.Edges = append(n.Edges, Edge{
			ID: fmt.Sprintf("%s-e-j%02d", opts.ID, j), Parent: plantID, Child: id,
			LengthM: 200 + rng.Float64()*1800, LossPerKM: 0.01 + rng.Float64()*0.02,
		})
	}
	for s := 0; s < opts.Substations; s++ {
		id := fmt.Sprintf("%s-s%03d", opts.ID, s)
		demand := meanDemandKW * (0.5 + rng.Float64())
		n.Nodes = append(n.Nodes, Node{
			ID: id, Kind: NodeSubstation, Name: fmt.Sprintf("Substation %d", s),
			Lat: 45.05 + rng.Float64()*0.04, Lon: 7.62 + rng.Float64()*0.08,
			DemandKW: math.Round(demand*10) / 10,
			Building: fmt.Sprintf("urn:district:turin/building:b%04d", s),
		})
		n.Edges = append(n.Edges, Edge{
			ID:     fmt.Sprintf("%s-e-s%03d", opts.ID, s),
			Parent: junctionIDs[s%len(junctionIDs)], Child: id,
			LengthM: 50 + rng.Float64()*450, LossPerKM: 0.01 + rng.Float64()*0.02,
		})
	}
	return n
}
