package core

// First-level translation caches: fixed-size, open-addressed, direct-mapped
// tables private to one Exec. They replace the earlier map[uint64]-based
// caches on the dispatch hot path:
//
//   - A lookup is one masked multiply (the same Fibonacci hash the shared
//     cache shards by) and one slot compare — no map header, no bucket
//     chain, no hashing through runtime interfaces.
//   - The table never grows. A PC whose slot is occupied by another PC
//     evicts it (direct-mapped conflict), so storage is bounded by
//     construction at the power-of-two rounding of Options.CacheCap.
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

type utab struct {
	slots []uslot
	shift uint
}

type btab struct {
	slots []bslot
	shift uint
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

func (t *utab) init(cap int) {
	size, shift := tabSize(cap)
	t.slots = make([]uslot, size)
	t.shift = shift
}

func (t *utab) idx(pc uint64) uint64 { return l1hash(pc) >> t.shift }

func (t *btab) init(cap int) {
	size, shift := tabSize(cap)
	t.slots = make([]bslot, size)
	t.shift = shift
}

func (t *btab) idx(pc uint64) uint64 { return l1hash(pc) >> t.shift }
