package cluster

// arena is a chunked slab allocator for per-job objects (RunningJob,
// slice, ssRunning). alloc hands out pointer-stable slots: the most
// recently released one first, else the next slot of a fixed-size chunk.
// release returns a slot once its object is dead, so the slots in use are
// bounded by the objects alive at once, not by how many a run has made.
// reset rewinds the cursor and drops the free list: the next run reuses
// the same chunks without freeing them.
//
// A pointer is valid until its slot is released — for a RunningJob, until
// the cluster's done or killed handler for it returns — and at the latest
// until reset. alloc returns DIRTY memory: a released slot, and after a
// reset every slot, still holds its previous object's bytes. Every caller
// must overwrite all fields it reads.
type arena[T any] struct {
	chunks [][]T
	ci, n  int  // cursor: the next fresh slot is chunks[ci][n]
	free   []*T // released slots, reused last-in first-out
}

const arenaChunk = 256

func (a *arena[T]) alloc() *T {
	if k := len(a.free) - 1; k >= 0 {
		p := a.free[k]
		a.free = a.free[:k]
		return p
	}
	if a.ci >= len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	c := a.chunks[a.ci]
	p := &c[a.n]
	a.n++
	if a.n == len(c) {
		a.ci++
		a.n = 0
	}
	return p
}

// release makes p's slot available to the next alloc. p must have come
// from this arena since the last reset and must not be released twice.
func (a *arena[T]) release(p *T) { a.free = append(a.free, p) }

// slots returns the number of distinct slots handed out since the last
// reset, the high-water mark of objects alive at once.
func (a *arena[T]) slots() int { return a.ci*arenaChunk + a.n }

// inUse returns the number of slots handed out and not released.
func (a *arena[T]) inUse() int { return a.slots() - len(a.free) }

func (a *arena[T]) reset() { a.ci, a.n, a.free = 0, 0, a.free[:0] }

// intArena bump-allocates gang node-ID storage out of large shared
// chunks. It never rewinds: each region it hands out belongs to one
// RunningJob arena slot for the life of the cluster, and the slot reuses
// it for every job it holds (see fitIDs). Rewinding the chunks at reset
// while a dirty slot still pointed into them would let a fresh slot's
// region alias it.
type intArena struct {
	cur []int // the chunk being carved; its length is the cursor
}

const intArenaChunk = 1024

// make returns an empty slice of capacity n carved from the arena. The
// capacity is clipped, so appends can never bleed into a neighbouring
// region.
func (a *intArena) make(n int) []int {
	if n > intArenaChunk {
		// A gang wider than a whole chunk (larger than any real cluster
		// here); give it a dedicated allocation rather than a chunk class.
		return make([]int, 0, n)
	}
	if len(a.cur)+n > cap(a.cur) {
		a.cur = make([]int, 0, intArenaChunk)
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	return a.cur[start : start : start+n]
}

// fitIDs copies ids into dst's storage, the node-ID list a RunningJob slot
// held for its previous job. When dst is too small the slot gets a new
// region of at least twice its old capacity, so the regions a slot ever
// abandons sum to less than the one it keeps, and node-ID storage stays
// bounded by the slots in use even when gang widths vary.
func (a *intArena) fitIDs(dst, ids []int) []int {
	if len(ids) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(ids) {
		dst = a.make(max(len(ids), 2*cap(dst)))
	}
	dst = dst[:len(ids)]
	copy(dst, ids)
	return dst
}
