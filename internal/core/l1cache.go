package core

// First-level translation caches: open-addressed, direct-mapped tables
// private to one Exec. They replace the earlier map[uint64]-based caches on
// the dispatch hot path:
//
//   - A lookup is one masked multiply (the same Fibonacci hash the shared
//     cache shards by) and one slot compare — no map header, no bucket
//     chain, no hashing through runtime interfaces.
//   - A table is sized to the code it caches. It starts at l1Start slots
//     and doubles on a miss that would leave more than half its slots
//     holding an entry, or that finds another PC's entry in its slot, up to
//     the power-of-two rounding of Options.CacheCap. Load alone would leave
//     hot PCs sharing a slot (a few blocks in 16 slots often do), and each
//     such conflict would go to the shared cache on every visit. At the
//     bound, a PC whose slot is occupied by another PC evicts it, so
//     storage stays bounded.
//   - Doubling re-places every entry at its index in the new table. Block
//     chain links name slot indices (bslot.nextSlot, Exec.lastB), so
//     growing the block table drops them all; they relink as the blocks
//     retire again.
//   - An empty slot is one whose unit (or block) pointer is nil. Lookups
//     test that pointer before the PC, so a zero slot never hits, even for
//     PC 0.
//
// Slot validity is two-tier. Each slot records the code-store epoch
// (mach.Memory.CodeGen) and the page generation under which its product was
// last validated. On a hit the epoch is compared first: an unchanged epoch
// proves no store has touched ANY code-marked page, so the product is valid
// without walking to the page. Only when the epoch moved does the lookup
// fall back to the per-page generation (refreshing the slot epoch when the
// page turns out untouched), and only a real page change forces
// re-translation.

// l1Start is the slot count of a table at first use. On the Table II
// kernel mix, tables end at 16–128 slots (1–4 KiB per Exec).
const l1Start = 16

type uslot struct {
	pc    uint64
	gen   uint64 // page generation at validation
	epoch uint64 // code-store epoch at validation
	u     *unit
}

// bslot is the block-table slot. Beyond the cached block it carries the
// block's chain link: after this slot's block retired, control transferred
// to next (a monomorphic inline cache of the dynamic successor). A link is
// followed only when the recorded successor start PC matches the machine's
// PC and the code-store epoch still equals nextEpoch — the epoch under
// which the successor was validated — so a followed link can never reach
// stale code. Conditional branches work naturally: when the other arm is
// taken the PC compare fails and dispatch falls back to the table.
type bslot struct {
	pc    uint64
	gen   uint64
	epoch uint64
	b     *xblock

	next      *xblock
	nextPC    uint64
	nextEpoch uint64
	nextSlot  uint32
}

// tabGeom is the slot-type-independent state of a first-level table.
type tabGeom struct {
	shift uint
	live  int // slots holding an entry
	limit int // the largest slot count: Options.CacheCap rounded up
}

type utab struct {
	slots []uslot
	tabGeom
}

type btab struct {
	slots []bslot
	tabGeom
}

// tabSize rounds a cache capacity to the next power of two (minimum 1) so
// indexing is a shift instead of a modulo.
func tabSize(cap int) (size int, shift uint) {
	size = 1
	shift = 64
	for size < cap {
		size <<= 1
		shift--
	}
	return size, shift
}

// l1hash spreads a word-aligned PC across the table; the same Fibonacci
// multiplier as shardOf so the two levels decorrelate only by shift width.
func l1hash(pc uint64) uint64 { return (pc >> 2) * 0x9e3779b97f4a7c15 }

func (g *tabGeom) idx(pc uint64) uint64 { return l1hash(pc) >> g.shift }

// start bounds the table by cap and returns its first slot count.
func (g *tabGeom) start(cap int) int {
	g.limit, _ = tabSize(cap)
	size, shift := tabSize(min(l1Start, g.limit))
	g.shift = shift
	return size
}

// place decides where a new PC's entry goes, given whether its slot in a
// size-slot table holds another PC's entry. It reports whether the table
// must first double: the slot is taken, or filling it would leave more
// than half the slots holding an entry, and the table is below its limit.
// Otherwise it counts the entry if it fills an empty slot. Doubling moves
// the entry in slot i to slot 2i or 2i+1, so no two entries collide in the
// new table.
func (g *tabGeom) place(taken bool, size int) (grow bool) {
	if size < g.limit && (taken || 2*(g.live+1) > size) {
		g.shift--
		return true
	}
	if !taken {
		g.live++
	}
	return false
}

func (t *utab) init(cap int) { t.slots = make([]uslot, t.start(cap)) }

// slot returns the slot that is to cache pc, doubling the table until pc's
// slot is free and within the load factor, or the table is at its limit.
func (t *utab) slot(pc uint64) *uslot {
	for {
		s := &t.slots[t.idx(pc)]
		if s.u != nil && s.pc == pc || !t.place(s.u != nil, len(t.slots)) {
			return s
		}
		old := t.slots
		t.slots = make([]uslot, 2*len(old))
		for _, o := range old {
			if o.u != nil {
				t.slots[t.idx(o.pc)] = o
			}
		}
	}
}

func (t *btab) init(cap int) { t.slots = make([]bslot, t.start(cap)) }

// slot returns the index of the slot that is to cache pc, doubling the
// table as utab.slot does. A doubling drops every chain link, since links
// name slot indices, and reports grew so the caller forgets its own.
func (t *btab) slot(pc uint64) (i uint64, grew bool) {
	for {
		i = t.idx(pc)
		s := &t.slots[i]
		if s.b != nil && s.pc == pc || !t.place(s.b != nil, len(t.slots)) {
			return i, grew
		}
		old := t.slots
		t.slots = make([]bslot, 2*len(old))
		for _, o := range old {
			if o.b != nil {
				t.slots[t.idx(o.pc)] = bslot{pc: o.pc, gen: o.gen, epoch: o.epoch, b: o.b}
			}
		}
		grew = true
	}
}
