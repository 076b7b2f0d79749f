package stream

// Arena holds one run of values per node in a shared array: node u's are
// vals[runs[u].Off:][:runs[u].N]. A run that grows is rewritten onto the
// tail, its old entries turning dead; one that shrinks is rewritten in
// place. Once dead entries outnumber live ones the array is rebuilt in
// node order, so len(vals) <= 2·live under any edits, and nothing is
// allocated per node. An edit of one run writes no other: a row returned
// for another node keeps its values, across a rebuild too.
type Arena[V any] struct {
	vals []V
	runs []Run
	live int
}

// Run is one node's slice of an arena's values.
type Run struct{ Off, N uint32 }

// NewArena returns an arena of n empty runs.
func NewArena[V any](n int) Arena[V] { return Arena[V]{runs: make([]Run, n)} }

// PackedArena returns the arena whose runs tile vals, taking both.
func PackedArena[V any](vals []V, runs []Run) Arena[V] {
	return Arena[V]{vals: vals, runs: runs, live: len(vals)}
}

// N returns the number of runs.
func (a *Arena[V]) N() int { return len(a.runs) }

// Len returns the number of values held, live and dead.
func (a *Arena[V]) Len() int { return len(a.vals) }

// Live returns the number of values the runs cover.
func (a *Arena[V]) Live() int { return a.live }

// Run returns node u's run.
func (a *Arena[V]) Run(u int) Run { return a.runs[u] }

// Row returns node u's values, capped at the run's end. They hold until
// the next edit of u's run.
func (a *Arena[V]) Row(u int) []V {
	r := a.runs[u]
	return a.vals[r.Off : r.Off+r.N : r.Off+r.N]
}

// Stage appends vs past every run, a set for Place.
func (a *Arena[V]) Stage(vs ...V) { a.vals = append(a.vals, vs...) }

// Tail returns the values staged from start, an earlier Len, on.
func (a *Arena[V]) Tail(start int) []V { return a.vals[start:] }

// Place makes the values staged from start node u's run: copied over the
// old run if they fit, else left where they are, the old run turning dead.
func (a *Arena[V]) Place(u, start int) {
	set, old := a.vals[start:], a.runs[u]
	a.live += len(set) - int(old.N)
	if len(set) <= int(old.N) {
		copy(a.vals[old.Off:], set)
		a.vals = a.vals[:start]
		a.runs[u].N = uint32(len(set))
	} else if int64(len(a.vals)) > int64(^uint32(0)) {
		panic("stream: arena exceeds 4B values")
	} else {
		a.runs[u] = Run{Off: uint32(start), N: uint32(len(set))}
	}
	a.settle()
}

// Append adds v at the end of node u's run, which moves to the tail.
func (a *Arena[V]) Append(u int, v V) {
	start := len(a.vals)
	a.vals = append(append(a.vals, a.Row(u)...), v)
	a.Place(u, start)
}

// SwapRemove removes the i-th value of node u's run, moving the last into
// its slot.
func (a *Arena[V]) SwapRemove(u, i int) {
	row := a.Row(u)
	row[i] = row[len(row)-1]
	a.runs[u].N--
	a.live--
	a.settle()
}

// settle rebuilds the array in node order once dead values outnumber
// live. The rebuilt array has room for the cycle to come, whose tail
// moves take it from live values to the next rebuild past 2·live: a
// quarter live more covers the move that crosses that line while the
// live count stays about level, as under churn. A cycle that adds more
// than about live/8 values can still grow and copy the array once.
func (a *Arena[V]) settle() {
	if len(a.vals)-a.live <= a.live {
		return
	}
	vals := make([]V, 0, 2*a.live+a.live/4)
	for u, r := range a.runs {
		a.runs[u].Off = uint32(len(vals))
		vals = append(vals, a.vals[r.Off:r.Off+r.N]...)
	}
	a.vals = vals
}
