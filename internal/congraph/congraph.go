// Package congraph builds the sub-table connectivity graph — the paper's
// page-level join index. Nodes are basic sub-tables of the two joined
// tables; an edge connects a left and a right sub-table whose bounds on the
// join attributes overlap, i.e. a candidate pair that must be checked for
// matches. Connected components are the unit of IJ scheduling.
package congraph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/rtree"
	"sciview/internal/tuple"
)

// Edge is a candidate sub-table pair (left chunk index, right chunk index
// into the Graph's Left/Right slices).
type Edge struct {
	Left  int
	Right int
}

// Graph is a bipartite sub-table connectivity graph. The catalog keeps
// the graphs statements ask for (metadata.Catalog.JoinGraph) and shares
// each with every statement over the same chunk sets, so no caller
// modifies one.
type Graph struct {
	Left  []*chunk.Desc
	Right []*chunk.Desc
	Edges []Edge

	mu        sync.Mutex
	schedules map[int][][]Step // by joiner count
}

// Build constructs the connectivity graph between the given left and right
// chunk sets for a join on joinAttrs. Both chunk sets must expose every
// join attribute; per the paper, a missing bound would be [-Inf,+Inf] and
// join everything, which is almost certainly a mis-specified join, so it is
// rejected instead.
//
// Candidate pairs are found with an R-tree bulk-loaded over the right set
// (rtree.BulkLoad, O(R log R)) and searched once per left box, so the cost
// is O(R log R + L log R + n_e) rather than O(L·R). Edges come out sorted
// by (left, right).
func Build(left, right []*chunk.Desc, joinAttrs []string) (*Graph, error) {
	if len(joinAttrs) == 0 {
		return nil, fmt.Errorf("congraph: no join attributes")
	}
	leftIdx, err := attrIndexes(left, joinAttrs)
	if err != nil {
		return nil, fmt.Errorf("congraph: left table: %w", err)
	}
	rightIdx, err := attrIndexes(right, joinAttrs)
	if err != nil {
		return nil, fmt.Errorf("congraph: right table: %w", err)
	}

	g := &Graph{Left: left, Right: right}
	boxes := make([]bbox.Box, len(right))
	ids := make([]int64, len(right))
	for i, d := range right {
		boxes[i], ids[i] = joinBox(d, rightIdx[i]), int64(i)
	}
	tree := rtree.BulkLoad(len(joinAttrs), 0, boxes, ids)
	var hits []int64
	for li, d := range left {
		hits = tree.Search(joinBox(d, leftIdx[li]), hits[:0])
		// Sort for deterministic edge order.
		slices.Sort(hits)
		for _, ri := range hits {
			g.Edges = append(g.Edges, Edge{Left: li, Right: int(ri)})
		}
	}
	return g, nil
}

// attrIndexes resolves the join attributes in every chunk's schema. Chunks
// of one table may in principle have differing schemas; the common case is
// one schema, so indexes are computed per distinct schema shape cheaply by
// recomputing only when the schema differs from the previous chunk's.
func attrIndexes(descs []*chunk.Desc, joinAttrs []string) ([][]int, error) {
	out := make([][]int, len(descs))
	for i, d := range descs {
		if i > 0 && sameAttrs(descs[i-1].Attrs, d.Attrs) {
			out[i] = out[i-1]
			continue
		}
		schema := d.Schema()
		idxs, err := schema.Indexes(joinAttrs)
		if err != nil {
			return nil, fmt.Errorf("chunk %v: %w", d.ID(), err)
		}
		out[i] = idxs
	}
	return out, nil
}

func sameAttrs(a, b []tuple.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// joinBox projects a chunk's bounds onto the join attributes.
func joinBox(d *chunk.Desc, idx []int) bbox.Box {
	lo := make([]float64, len(idx))
	hi := make([]float64, len(idx))
	for k, i := range idx {
		lo[k] = d.Bounds.Lo[i]
		hi[k] = d.Bounds.Hi[i]
	}
	return bbox.New(lo, hi)
}

// NumEdges returns n_e.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// RightDegrees returns the degree of each right node. The IJ lookup cost is
// proportional to sum(degree(right) × rows(right)).
func (g *Graph) RightDegrees() []int {
	deg := make([]int, len(g.Right))
	for _, e := range g.Edges {
		deg[e.Right]++
	}
	return deg
}

// AvgRightDegree returns n_e / m_S, the average degree of a right
// sub-table node — the multiplier on IJ's probe cost in the cost model.
func (g *Graph) AvgRightDegree() float64 {
	if len(g.Right) == 0 {
		return 0
	}
	return float64(len(g.Edges)) / float64(len(g.Right))
}

// Component is a connected sub-graph: the unit the IJ scheduler assigns to
// a compute node. Lefts and Rights index into the Graph's chunk slices;
// Edges are the component's candidate pairs.
type Component struct {
	Lefts  []int
	Rights []int
	Edges  []Edge
}

// Components returns the connected components of the graph, each with its
// edges, ordered deterministically by smallest left index. Isolated nodes
// (sub-tables with no candidate partner) contribute no component: they
// produce no join output and are never fetched.
func (g *Graph) Components() []Component {
	uf := newUnionFind(len(g.Left) + len(g.Right))
	r0 := len(g.Left)
	for _, e := range g.Edges {
		uf.union(e.Left, r0+e.Right)
	}
	byRoot := make(map[int]*Component)
	var order []int
	for _, e := range g.Edges {
		root := uf.find(e.Left)
		comp, ok := byRoot[root]
		if !ok {
			comp = &Component{}
			byRoot[root] = comp
			order = append(order, root)
		}
		comp.Edges = append(comp.Edges, e)
	}
	seenL := make([]bool, len(g.Left))
	seenR := make([]bool, len(g.Right))
	out := make([]Component, 0, len(order))
	for _, root := range order {
		comp := byRoot[root]
		for _, e := range comp.Edges {
			if !seenL[e.Left] {
				seenL[e.Left] = true
				comp.Lefts = append(comp.Lefts, e.Left)
			}
			if !seenR[e.Right] {
				seenR[e.Right] = true
				comp.Rights = append(comp.Rights, e.Right)
			}
		}
		slices.Sort(comp.Lefts)
		slices.Sort(comp.Rights)
		out = append(out, *comp)
	}
	return out
}

// Step is one edge of an IJ schedule: the ids of its left and right
// sub-tables, and whether it is the last edge of its connected component.
type Step struct {
	Left, Right tuple.ID
	Last        bool
}

// Schedules assigns the graph's edges to nj joiner nodes by the paper's
// two-stage strategy. Stage 1 deals connected components round-robin to
// joiner nodes, so every QES instance gets the same amount of work.
// Stage 2 sorts the id pairs of each component lexicographically by
// ((i1,j1),(i2,j2)) and processes components one after another, each one
// schedule unit of the joiner's output (engine.Sink). Component-local
// order is what gives the paper's no-eviction guarantee under the memory
// assumption (cache ≥ 2·c_R + b·c_S): a component's right sub-tables stay
// cached while its left sub-tables stream through once each.
//
// The schedules are computed once per nj and shared: callers must not
// modify them.
func (g *Graph) Schedules(nj int) [][]Step {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.schedules[nj]; ok {
		return s
	}
	schedules := make([][]Step, nj)
	for k, comp := range g.Components() {
		j := k % nj
		start := len(schedules[j])
		for _, e := range comp.Edges {
			schedules[j] = append(schedules[j], Step{Left: g.Left[e.Left].ID(), Right: g.Right[e.Right].ID()})
		}
		sched := schedules[j][start:]
		slices.SortFunc(sched, func(a, b Step) int {
			return cmp.Or(cmp.Compare(a.Left.Table, b.Left.Table), cmp.Compare(a.Left.Chunk, b.Left.Chunk),
				cmp.Compare(a.Right.Table, b.Right.Table), cmp.Compare(a.Right.Chunk, b.Right.Chunk))
		})
		sched[len(sched)-1].Last = true
	}
	if g.schedules == nil {
		g.schedules = make(map[int][][]Step)
	}
	g.schedules[nj] = schedules
	return schedules
}

// unionFind is a weighted quick-union with path halving.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
