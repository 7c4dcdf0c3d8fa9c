package trace

import "math/rand"

// This file provides an execution-driven alternative to the statistical
// mixtures: a synthetic power-law graph in CSR form and generators that
// emit the exact address sequence of BFS and PageRank-style traversals over
// it. The mixture models stay the calibrated default for the harness (they
// scale to arbitrary footprints at zero memory cost); the CSR walkers give
// a ground-truth irregular stream for validation and for the graph example.

// Graph is a synthetic directed graph in compressed-sparse-row form with a
// power-law out-degree distribution (heavy-tailed like real social/web
// graphs).
type Graph struct {
	// Offsets[v] is the index of v's first out-edge; len = V+1.
	Offsets []uint64
	// Edges holds destination vertex IDs.
	Edges []uint32
}

// NumVertices returns V.
func (g *Graph) NumVertices() uint64 { return uint64(len(g.Offsets) - 1) }

// NumEdges returns E.
func (g *Graph) NumEdges() uint64 { return uint64(len(g.Edges)) }

// Degree returns v's out-degree.
func (g *Graph) Degree(v uint64) uint64 { return g.Offsets[v+1] - g.Offsets[v] }

// GenerateGraph builds a deterministic power-law graph with the given
// vertex count and average degree. Hub vertices (low IDs after the internal
// shuffle) attract most edges, matching the skew that makes graph workloads
// translation-hostile.
func GenerateGraph(seed int64, vertices uint64, avgDegree int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{Offsets: make([]uint64, vertices+1)}
	zipf := rand.NewZipf(rng, 1.2, 8, vertices-1)

	// Degree assignment: mostly small, a few hubs.
	degrees := make([]uint32, vertices)
	var total uint64
	want := vertices * uint64(avgDegree)
	for total < want {
		v := zipf.Uint64()
		// Scatter hub IDs across the ID space.
		v = (v * 0x9E3779B97F4A7C15) % vertices
		if degrees[v] < 1<<20 {
			degrees[v]++
			total++
		}
	}
	g.Edges = make([]uint32, total)
	var off uint64
	for v := uint64(0); v < vertices; v++ {
		g.Offsets[v] = off
		off += uint64(degrees[v])
	}
	g.Offsets[vertices] = off

	// Destinations: Zipf-skewed (edges point at hubs), deterministic.
	for i := range g.Edges {
		d := zipf.Uint64()
		g.Edges[i] = uint32((d * 0x9E3779B97F4A7C15) % vertices)
	}
	return g
}

// CSR memory layout constants: the walkers emit addresses as if the graph
// were laid out contiguously in virtual memory.
const (
	vertexPropBytes = 16 // per-vertex property record (level/rank/etc.)
	offsetBytes     = 8
	edgeBytes       = 4
)

// CSRLayout maps graph structures to virtual address ranges.
type CSRLayout struct {
	PropsBase   uint64
	OffsetsBase uint64
	EdgesBase   uint64
	// Footprint is the total mapped size.
	Footprint uint64
}

// NewCSRLayout lays out props | offsets | edges contiguously from base 0.
func NewCSRLayout(g *Graph) CSRLayout {
	v := g.NumVertices()
	var l CSRLayout
	l.PropsBase = 0
	l.OffsetsBase = align4K(v * vertexPropBytes)
	l.EdgesBase = align4K(l.OffsetsBase + (v+1)*offsetBytes)
	l.Footprint = align4K(l.EdgesBase + g.NumEdges()*edgeBytes)
	return l
}

func align4K(x uint64) uint64 { return (x + 4095) &^ 4095 }

// BFSWalker is a Generator that performs an actual breadth-first traversal
// and emits every memory touch: the frontier pop, the offset reads, the
// sequential edge scan, and the dependent neighbor-property accesses. When
// the traversal exhausts a component it reseeds from a random vertex, so
// the stream is infinite.
type BFSWalker struct {
	g        *Graph
	l        CSRLayout
	rng      *rand.Rand
	visited  []bool
	frontier []uint32
	next     []uint32
	// pending holds not-yet-emitted accesses of the current step.
	pending      []Access
	visitedCount uint64
}

// NewBFSWalker builds a walker over g starting from a seeded vertex.
func NewBFSWalker(g *Graph, seed int64) *BFSWalker {
	w := &BFSWalker{
		g:       g,
		l:       NewCSRLayout(g),
		rng:     rand.New(rand.NewSource(seed)),
		visited: make([]bool, g.NumVertices()),
	}
	w.reseed()
	return w
}

// Layout exposes the walker's address layout.
func (w *BFSWalker) Layout() CSRLayout { return w.l }

// VisitedCount reports vertices visited so far (across reseeds).
func (w *BFSWalker) VisitedCount() uint64 { return w.visitedCount }

func (w *BFSWalker) reseed() {
	// Reset visited lazily when the whole graph is consumed.
	if w.visitedCount >= w.g.NumVertices() {
		for i := range w.visited {
			w.visited[i] = false
		}
		w.visitedCount = 0
	}
	for tries := 0; tries < 64; tries++ {
		v := uint32(w.rng.Uint64() % w.g.NumVertices())
		if !w.visited[v] {
			w.visited[v] = true
			w.visitedCount++
			w.frontier = append(w.frontier[:0], v)
			return
		}
	}
	// Dense: linear probe.
	for v := uint64(0); v < w.g.NumVertices(); v++ {
		if !w.visited[v] {
			w.visited[v] = true
			w.visitedCount++
			w.frontier = append(w.frontier[:0], uint32(v))
			return
		}
	}
}

// expand visits one frontier vertex, queueing its memory accesses.
func (w *BFSWalker) expand() {
	for len(w.frontier) == 0 {
		if len(w.next) > 0 {
			w.frontier, w.next = w.next, w.frontier[:0]
			continue
		}
		w.reseed()
	}
	v := uint64(w.frontier[len(w.frontier)-1])
	w.frontier = w.frontier[:len(w.frontier)-1]

	// Offset read (and the implicit next offset in the same or next line).
	w.pending = append(w.pending, Access{
		VA: w.l.OffsetsBase + v*offsetBytes, NonMemInsts: 2, Stream: 1,
	})
	start, end := w.g.Offsets[v], w.g.Offsets[v+1]
	for e := start; e < end; e++ {
		// Sequential edge scan.
		w.pending = append(w.pending, Access{
			VA: w.l.EdgesBase + e*edgeBytes, NonMemInsts: 1, Stream: 2,
		})
		d := uint64(w.g.Edges[e])
		// Dependent property access: visited check + level update.
		acc := Access{
			VA: w.l.PropsBase + d*vertexPropBytes, NonMemInsts: 2,
			Dependent: true, Stream: 3,
		}
		if !w.visited[d] {
			w.visited[d] = true
			w.visitedCount++
			w.next = append(w.next, uint32(d))
			acc.Write = true // level store
		}
		w.pending = append(w.pending, acc)
	}
}

// Next implements Generator.
func (w *BFSWalker) Next(a *Access) {
	for len(w.pending) == 0 {
		w.expand()
	}
	*a = w.pending[0]
	w.pending = w.pending[1:]
	if len(w.pending) == 0 {
		// Reuse backing storage.
		w.pending = w.pending[:0]
	}
}

// PageRankWalker emits the address stream of power-iteration PageRank:
// for each vertex in order, read its offsets, scan its edges sequentially,
// and gather each neighbor's rank (irregular, dependent); vertex rank
// writes stream sequentially.
type PageRankWalker struct {
	g       *Graph
	l       CSRLayout
	v       uint64
	pending []Access
}

// NewPageRankWalker builds a walker over g.
func NewPageRankWalker(g *Graph) *PageRankWalker {
	return &PageRankWalker{g: g, l: NewCSRLayout(g)}
}

// Layout exposes the walker's address layout.
func (w *PageRankWalker) Layout() CSRLayout { return w.l }

func (w *PageRankWalker) expand() {
	v := w.v
	w.v = (w.v + 1) % w.g.NumVertices()
	w.pending = append(w.pending, Access{
		VA: w.l.OffsetsBase + v*offsetBytes, NonMemInsts: 2, Stream: 1,
	})
	start, end := w.g.Offsets[v], w.g.Offsets[v+1]
	for e := start; e < end; e++ {
		w.pending = append(w.pending, Access{
			VA: w.l.EdgesBase + e*edgeBytes, NonMemInsts: 1, Stream: 2,
		})
		d := uint64(w.g.Edges[e])
		w.pending = append(w.pending, Access{
			VA: w.l.PropsBase + d*vertexPropBytes, NonMemInsts: 3,
			Dependent: true, Stream: 3,
		})
	}
	// New rank store.
	w.pending = append(w.pending, Access{
		VA: w.l.PropsBase + v*vertexPropBytes + 8, Write: true,
		NonMemInsts: 4, Stream: 4,
	})
}

// Next implements Generator.
func (w *PageRankWalker) Next(a *Access) {
	for len(w.pending) == 0 {
		w.expand()
	}
	*a = w.pending[0]
	w.pending = w.pending[1:]
}

var (
	_ Generator = (*BFSWalker)(nil)
	_ Generator = (*PageRankWalker)(nil)
)
