package overlay

// CSR is a compressed-sparse-row snapshot of a Graph's adjacency: all
// neighbor lists concatenated into one dense column slice, indexed by a
// row-pointer array. It is the memory layout the flat struct-of-arrays
// query engine (internal/peer/flat) iterates — one contiguous allocation
// instead of N per-node slices, so neighbor scans are sequential reads
// and the whole adjacency of a million-node overlay fits in a few dozen
// megabytes. A CSR is immutable: it snapshots the graph at build time
// and is safe for concurrent readers.
type CSR struct {
	// rowPtr has length N+1; node u's neighbors are
	// col[rowPtr[u]:rowPtr[u+1]]. uint32 keeps the row index — the
	// hottest randomly-accessed array in a traversal — at half the
	// cache footprint of a word-sized offset; 4B adjacency entries
	// (16 GB of columns alone) is far beyond any overlay this engine
	// targets, and NewCSR refuses the overflow explicitly.
	rowPtr []uint32
	col    []int32
}

// NewCSR builds a CSR snapshot of g. Neighbor order is preserved
// element for element, so any traversal order defined over
// Graph.Neighbors is identical over the CSR (pinned by the equivalence
// property test).
func NewCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{rowPtr: make([]uint32, n+1)}
	var total int64
	for u := 0; u < n; u++ {
		c.rowPtr[u] = uint32(total)
		total += int64(g.Degree(u))
	}
	if total > int64(^uint32(0)) {
		panic("overlay: CSR adjacency exceeds 4B entries")
	}
	c.rowPtr[n] = uint32(total)
	c.col = make([]int32, total)
	for u := 0; u < n; u++ {
		copy(c.col[c.rowPtr[u]:c.rowPtr[u+1]], g.Neighbors(u))
	}
	return c
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.rowPtr) - 1 }

// Neighbors returns u's neighbor list as a subslice of the shared column
// array. The returned slice is owned by the CSR and must not be modified.
func (c *CSR) Neighbors(u int) []int32 { return c.col[c.rowPtr[u]:c.rowPtr[u+1]] }

// TouchRow reads node u's row pointer and returns it. It computes
// nothing useful — it exists so a traversal loop can issue the load for
// a row it will scan a few iterations from now and sink the result,
// keeping the DRAM misses of million-node frontiers in flight ahead of
// use. Deliberately a single independent load: touching the columns too
// would chain a second miss behind this one and stall the caller's
// lookahead window instead of widening it.
func (c *CSR) TouchRow(u int32) uint32 {
	return c.rowPtr[u]
}

// TouchCol reads the first entry of u's neighbor list (0 for an
// isolated node) — TouchRow's second stage. A caller that touched the
// row pointer some iterations earlier can touch the columns now as a
// single unchained load, because the pointer itself is already cached;
// calling it cold would chain two misses and defeat the point.
func (c *CSR) TouchCol(u int32) int32 {
	if p := c.rowPtr[u]; p < c.rowPtr[u+1] {
		return c.col[p]
	}
	return 0
}
