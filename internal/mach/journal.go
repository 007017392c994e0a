package mach

// The undo journal implements the paper's speculation support (§IV-B4):
// "the instruction information structure carries enough information to roll
// back the architectural effects of each instruction." We centralize the
// log in the machine rather than the instruction record; a Mark taken
// before an instruction (or any span of instructions) rolls back everything
// executed since.

type entryKind uint8

const (
	entryReg entryKind = iota
	entryMem
	entryPC
)

type journalEntry struct {
	kind  entryKind
	space *Space
	idx   int
	addr  uint64
	old   uint64
	size  uint8
}

// Journal is an undo log of architectural writes.
type Journal struct {
	entries []journalEntry
}

// Mark identifies a point in the journal that can be rolled back to.
type Mark int

// Mark returns the current journal position.
func (j *Journal) Mark() Mark { return Mark(len(j.entries)) }

// Len reports the number of journaled writes (for tests and stats).
func (j *Journal) Len() int { return len(j.entries) }

func (j *Journal) logReg(s *Space, idx int, old uint64) {
	j.entries = append(j.entries, journalEntry{kind: entryReg, space: s, idx: idx, old: old})
}

func (j *Journal) logMem(addr, old uint64, size int) {
	j.entries = append(j.entries, journalEntry{kind: entryMem, addr: addr, old: old, size: uint8(size)})
}

func (j *Journal) logPC(old uint64) {
	j.entries = append(j.entries, journalEntry{kind: entryPC, old: old})
}

// Rollback undoes, in reverse order, every architectural write journaled
// since mark, restoring registers and memory on machine m (and the PC, for
// callers that journaled it via SetPC — the synthesized simulators leave PC
// restoration to the speculation driver, which knows the PC at each mark).
func (j *Journal) Rollback(m *Machine, mark Mark) {
	for i := len(j.entries) - 1; i >= int(mark); i-- {
		e := j.entries[i]
		switch e.kind {
		case entryReg:
			e.space.Vals[e.idx] = e.old
		case entryMem:
			m.Mem.Store(e.addr, e.old, int(e.size))
		case entryPC:
			m.PC = e.old
		}
	}
	j.entries = j.entries[:mark]
}

// Commit discards journal entries older than mark: those writes become
// permanent and can no longer be rolled back. Marks taken after the
// committed prefix must be rebased by subtracting the committed mark.
// Committing bounds journal growth during long speculative runs.
func (j *Journal) Commit(mark Mark) {
	n := copy(j.entries, j.entries[mark:])
	j.entries = j.entries[:n]
}

// Reset empties the journal and keeps its backing array, so a machine that
// is reset between speculative runs journals without allocating once it has
// run the largest of them.
func (j *Journal) Reset() {
	j.entries = j.entries[:0]
}
