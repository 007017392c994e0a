// Package checkpoint serializes and restores the architectural state of a
// simulated machine so long runs can survive process death: sweeps resume
// instead of restarting, and a watchdog retry continues a cell from its
// last in-cell checkpoint instead of from zero.
//
// The on-disk format is versioned, deterministic (the same state always
// produces the same bytes), and damage-evident:
//
//	magic "SSCK" u32 | version u32
//	section*: id u32 | payload-len u64 | payload | crc32(payload) u32
//	trailer: 0xffffffff u32 | sha256 of every preceding byte
//
// Every multi-byte integer is little-endian. The per-section CRC32 localizes
// a fault to one section; the whole-file SHA-256 catches anything the CRCs
// miss (including section-boundary splices). Read distinguishes its failure
// modes with typed errors — truncation, bit damage, version skew, and
// machine-shape mismatch are different operational events (fall back to an
// older checkpoint vs. upgrade the binary vs. fix the caller).
//
// Checkpoints capture state at instruction boundaries only: the machine
// must be quiescent (no instruction mid-flight, no uncommitted speculative
// journal suffix the caller cares about). Capture records the journal
// high-water mark so a restorer can assert the checkpoint was taken at a
// committed point; Apply resets the journal, because journal entries hold
// live Space pointers and are meaningless in another process.
package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sort"

	"singlespec/internal/mach"
)

// Format constants. Version bumps whenever the byte layout changes; readers
// reject any version they were not built for (restore correctness over
// forward compatibility).
const (
	Magic   = 0x5353434b // "SSCK"
	Version = 1

	secMachine = 1
	secMemory  = 2
	secMeta    = 3
	trailerID  = 0xffffffff

	// maxSection bounds a section's declared payload length so a corrupt
	// or adversarial header cannot provoke a huge allocation before its
	// CRC is ever checked.
	maxSection = 1 << 28
	// maxSpaces, maxSpaceVals, and maxMetaKey bound the machine-section
	// shape for the same reason.
	maxSpaces    = 1 << 10
	maxSpaceVals = 1 << 20
	maxMetaKey   = 1 << 12
)

// State is the serializable architectural state of one machine plus the
// simulation progress needed to resume: retired-instruction count and the
// speculation-journal high-water mark at capture. Meta carries opaque
// caller payloads (the experiment engine stores OS-emulation state and
// cell progress there) and is written with sorted keys so serialization
// stays deterministic.
type State struct {
	PC       uint64
	Halted   bool
	ExitCode int64
	Instret  uint64
	// JournalMark is the journal length at capture. A checkpoint is only
	// consistent if taken at a committed point; Capture records the mark so
	// restorers (and tests) can prove the invariant held.
	JournalMark uint64
	Order       mach.ByteOrder
	Spaces      []SpaceState
	Pages       []PageState
	Meta        map[string][]byte
}

// SpaceState is one register file's values, keyed by space name so a
// restore into a machine built from a different spec fails loudly.
type SpaceState struct {
	Name string
	Vals []uint64
}

// PageState is one memory page image.
type PageState struct {
	Base uint64
	Gen  uint64
	Data []byte
}

// Capture snapshots m's architectural state. The machine must be quiescent:
// between instructions, with any speculative journal suffix the caller
// intends to keep already committed (the recorded JournalMark pins the
// point). The returned state shares nothing with the machine.
func Capture(m *mach.Machine) *State {
	st := &State{
		PC:          m.PC,
		Halted:      m.Halted,
		ExitCode:    int64(m.ExitCode),
		Instret:     m.Instret,
		JournalMark: uint64(m.Journal.Len()),
		Order:       m.Mem.Order(),
	}
	for _, sp := range m.Spaces {
		st.Spaces = append(st.Spaces, SpaceState{
			Name: sp.Def.Name,
			Vals: append([]uint64(nil), sp.Vals...),
		})
	}
	for _, base := range m.Mem.PageBases() {
		data, gen := m.Mem.PageImage(base)
		st.Pages = append(st.Pages, PageState{Base: base, Gen: gen, Data: data})
	}
	return st
}

// Apply restores st into m: register spaces (matched by name), memory
// pages (pages mapped in m but absent from st are zeroed, so a reused
// machine ends architecturally identical to a fresh one), PC, halt state,
// and the retired-instruction counter. The speculation journal is reset —
// its entries reference live Space pointers and cannot survive
// serialization. Page restores advance store generations, so any cached
// translation revalidates rather than executing stale bytes.
func Apply(st *State, m *mach.Machine) error {
	if m.Mem.Order() != st.Order {
		return &MismatchError{What: fmt.Sprintf("byte order %v vs machine %v", st.Order, m.Mem.Order())}
	}
	if len(st.Spaces) != len(m.Spaces) {
		return &MismatchError{What: fmt.Sprintf("%d register spaces vs machine %d", len(st.Spaces), len(m.Spaces))}
	}
	for i, ss := range st.Spaces {
		sp := m.Spaces[i]
		if sp.Def.Name != ss.Name {
			return &MismatchError{What: fmt.Sprintf("space %d is %q vs machine %q", i, ss.Name, sp.Def.Name)}
		}
		if len(ss.Vals) != len(sp.Vals) {
			return &MismatchError{What: fmt.Sprintf("space %q has %d registers vs machine %d", ss.Name, len(ss.Vals), len(sp.Vals))}
		}
	}
	// Shape validated; now mutate.
	for i, ss := range st.Spaces {
		copy(m.Spaces[i].Vals, ss.Vals)
	}
	inState := make(map[uint64]bool, len(st.Pages))
	for _, pg := range st.Pages {
		inState[pg.Base] = true
	}
	for _, base := range m.Mem.PageBases() {
		if !inState[base] {
			m.Mem.SetPageImage(base, nil, 0)
		}
	}
	for _, pg := range st.Pages {
		m.Mem.SetPageImage(pg.Base, pg.Data, pg.Gen)
	}
	m.PC = st.PC
	m.Halted = st.Halted
	m.ExitCode = int(st.ExitCode)
	m.Instret = st.Instret
	m.Journal.Reset()
	return nil
}

// ---- typed errors ----

// BadMagicError reports a file that is not a checkpoint at all.
type BadMagicError struct{ Got uint32 }

func (e *BadMagicError) Error() string {
	return fmt.Sprintf("checkpoint: bad magic %#x (want %#x)", e.Got, uint32(Magic))
}

// VersionError reports version skew: the file is a checkpoint, but written
// by a different format revision.
type VersionError struct{ Got, Want uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: format version %d (this binary reads %d)", e.Got, e.Want)
}

// TruncatedError reports a file that ends mid-structure — the signature of
// a torn write or partial copy. It unwraps to io.ErrUnexpectedEOF.
type TruncatedError struct {
	At  string // which structure the data ran out in
	Off int64  // byte offset where the read failed
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("checkpoint: truncated in %s at offset %d", e.At, e.Off)
}

func (e *TruncatedError) Unwrap() error { return io.ErrUnexpectedEOF }

// CorruptError reports bit damage or structural nonsense: a CRC or SHA-256
// mismatch, an impossible length, a duplicate or unknown section.
type CorruptError struct {
	Section string
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: corrupt %s: %s", e.Section, e.Reason)
}

// MismatchError reports a structurally valid checkpoint that does not fit
// the target machine (different spec, register shape, or byte order).
type MismatchError struct{ What string }

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: machine mismatch: %s", e.What)
}

// ---- serialization ----

type encoder struct{ buf bytes.Buffer }

func (e *encoder) u8(v uint8)   { e.buf.WriteByte(v) }
func (e *encoder) u16(v uint16) { var b [2]byte; binary.LittleEndian.PutUint16(b[:], v); e.buf.Write(b[:]) }
func (e *encoder) u32(v uint32) { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); e.buf.Write(b[:]) }
func (e *encoder) u64(v uint64) { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); e.buf.Write(b[:]) }

func encodeMachine(st *State) []byte {
	var e encoder
	e.u64(st.PC)
	e.u64(st.Instret)
	e.u64(st.JournalMark)
	e.u64(uint64(st.ExitCode))
	if st.Halted {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u8(uint8(st.Order))
	e.u32(uint32(len(st.Spaces)))
	for _, sp := range st.Spaces {
		e.u16(uint16(len(sp.Name)))
		e.buf.WriteString(sp.Name)
		e.u32(uint32(len(sp.Vals)))
		for _, v := range sp.Vals {
			e.u64(v)
		}
	}
	return e.buf.Bytes()
}

func encodeMemory(st *State) []byte {
	pages := append([]PageState(nil), st.Pages...)
	sort.Slice(pages, func(i, j int) bool { return pages[i].Base < pages[j].Base })
	var e encoder
	e.u32(uint32(mach.PageSize()))
	e.u32(uint32(len(pages)))
	for _, pg := range pages {
		e.u64(pg.Base)
		e.u64(pg.Gen)
		e.buf.Write(pg.Data)
	}
	return e.buf.Bytes()
}

func encodeMeta(st *State) []byte {
	keys := make([]string, 0, len(st.Meta))
	for k := range st.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var e encoder
	e.u32(uint32(len(keys)))
	for _, k := range keys {
		e.u16(uint16(len(k)))
		e.buf.WriteString(k)
		e.u32(uint32(len(st.Meta[k])))
		e.buf.Write(st.Meta[k])
	}
	return e.buf.Bytes()
}

// Write serializes st. The byte stream is a deterministic function of the
// state: sections in fixed order, pages sorted by base, meta sorted by key.
func Write(w io.Writer, st *State) error {
	for _, pg := range st.Pages {
		if len(pg.Data) != mach.PageSize() {
			return fmt.Errorf("checkpoint: page %#x image is %d bytes, want %d", pg.Base, len(pg.Data), mach.PageSize())
		}
	}
	h := sha256.New()
	mw := io.MultiWriter(w, h)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	writeSection := func(id uint32, payload []byte) error {
		var sh [12]byte
		binary.LittleEndian.PutUint32(sh[0:], id)
		binary.LittleEndian.PutUint64(sh[4:], uint64(len(payload)))
		if _, err := mw.Write(sh[:]); err != nil {
			return err
		}
		if _, err := mw.Write(payload); err != nil {
			return err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		_, err := mw.Write(crc[:])
		return err
	}
	if err := writeSection(secMachine, encodeMachine(st)); err != nil {
		return err
	}
	if err := writeSection(secMemory, encodeMemory(st)); err != nil {
		return err
	}
	if len(st.Meta) > 0 {
		if err := writeSection(secMeta, encodeMeta(st)); err != nil {
			return err
		}
	}
	// Trailer: the id, then the SHA-256 of everything before the id.
	var tid [4]byte
	binary.LittleEndian.PutUint32(tid[:], trailerID)
	if _, err := w.Write(tid[:]); err != nil {
		return err
	}
	_, err := w.Write(h.Sum(nil))
	return err
}

// reader tracks the offset and running hash while consuming a stream.
type reader struct {
	r   io.Reader
	h   hash.Hash
	off int64
}

// read fills b, hashing the bytes. A short read becomes a TruncatedError
// naming the structure the data ran out in.
func (rd *reader) read(b []byte, at string) error {
	n, err := io.ReadFull(rd.r, b)
	rd.off += int64(n)
	if err != nil {
		return &TruncatedError{At: at, Off: rd.off}
	}
	rd.h.Write(b)
	return nil
}

func (rd *reader) u32(at string) (uint32, error) {
	var b [4]byte
	if err := rd.read(b[:], at); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (rd *reader) u64(at string) (uint64, error) {
	var b [8]byte
	if err := rd.read(b[:], at); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Read parses and validates a checkpoint stream: magic, version, every
// section CRC, the whole-file SHA-256 trailer, and the structural sanity of
// each section. All failure modes surface as the typed errors above; Read
// never panics on hostile input (FuzzRestore holds it to that).
func Read(r io.Reader) (*State, error) {
	rd := &reader{r: bufio.NewReader(r), h: sha256.New()}
	m, err := rd.u32("magic")
	if err != nil {
		return nil, err
	}
	if m != Magic {
		return nil, &BadMagicError{Got: m}
	}
	v, err := rd.u32("version")
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	st := &State{}
	seen := map[uint32]bool{}
	for {
		// The trailer id is read outside the hash: the SHA covers
		// everything before it.
		var idb [4]byte
		n, err := io.ReadFull(rd.r, idb[:])
		rd.off += int64(n)
		if err != nil {
			return nil, &TruncatedError{At: "section id", Off: rd.off}
		}
		id := binary.LittleEndian.Uint32(idb[:])
		if id == trailerID {
			want := rd.h.Sum(nil)
			got := make([]byte, len(want))
			if n, err := io.ReadFull(rd.r, got); err != nil {
				return nil, &TruncatedError{At: "sha256 trailer", Off: rd.off + int64(n)}
			}
			if !bytes.Equal(got, want) {
				return nil, &CorruptError{Section: "file", Reason: "sha256 trailer mismatch"}
			}
			break
		}
		rd.h.Write(idb[:])
		name := sectionName(id)
		length, err := rd.u64(name + " length")
		if err != nil {
			return nil, err
		}
		if length > maxSection {
			return nil, &CorruptError{Section: name, Reason: fmt.Sprintf("declared length %d exceeds limit", length)}
		}
		payload := make([]byte, length)
		if err := rd.read(payload, name+" payload"); err != nil {
			return nil, err
		}
		crc, err := rd.u32(name + " crc")
		if err != nil {
			return nil, err
		}
		if crc != crc32.ChecksumIEEE(payload) {
			return nil, &CorruptError{Section: name, Reason: "crc32 mismatch"}
		}
		if seen[id] {
			return nil, &CorruptError{Section: name, Reason: "duplicate section"}
		}
		seen[id] = true
		switch id {
		case secMachine:
			err = decodeMachine(payload, st)
		case secMemory:
			err = decodeMemory(payload, st)
		case secMeta:
			err = decodeMeta(payload, st)
		default:
			err = &CorruptError{Section: name, Reason: "unknown section id"}
		}
		if err != nil {
			return nil, err
		}
	}
	if !seen[secMachine] {
		return nil, &CorruptError{Section: "file", Reason: "missing machine section"}
	}
	if !seen[secMemory] {
		return nil, &CorruptError{Section: "file", Reason: "missing memory section"}
	}
	return st, nil
}

func sectionName(id uint32) string {
	switch id {
	case secMachine:
		return "machine section"
	case secMemory:
		return "memory section"
	case secMeta:
		return "meta section"
	}
	return fmt.Sprintf("section %d", id)
}

// decoder walks a CRC-validated payload. Structural violations still get
// typed errors: a CRC only proves the bytes are as written, not that the
// writer was sane.
type decoder struct {
	b       []byte
	section string
}

func (d *decoder) need(n int, what string) ([]byte, error) {
	if len(d.b) < n {
		return nil, &CorruptError{Section: d.section, Reason: "short " + what}
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

func (d *decoder) u8(what string) (uint8, error) {
	b, err := d.need(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u16(what string) (uint16, error) {
	b, err := d.need(2, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *decoder) u32(what string) (uint32, error) {
	b, err := d.need(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64(what string) (uint64, error) {
	b, err := d.need(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) leftover() error {
	if len(d.b) != 0 {
		return &CorruptError{Section: d.section, Reason: fmt.Sprintf("%d trailing bytes", len(d.b))}
	}
	return nil
}

func decodeMachine(payload []byte, st *State) error {
	d := &decoder{b: payload, section: "machine section"}
	var err error
	if st.PC, err = d.u64("pc"); err != nil {
		return err
	}
	if st.Instret, err = d.u64("instret"); err != nil {
		return err
	}
	if st.JournalMark, err = d.u64("journal mark"); err != nil {
		return err
	}
	ec, err := d.u64("exit code")
	if err != nil {
		return err
	}
	st.ExitCode = int64(ec)
	halted, err := d.u8("halted flag")
	if err != nil {
		return err
	}
	if halted > 1 {
		return &CorruptError{Section: d.section, Reason: "halted flag out of range"}
	}
	st.Halted = halted == 1
	order, err := d.u8("byte order")
	if err != nil {
		return err
	}
	if order > uint8(mach.BigEndian) {
		return &CorruptError{Section: d.section, Reason: "byte order out of range"}
	}
	st.Order = mach.ByteOrder(order)
	nsp, err := d.u32("space count")
	if err != nil {
		return err
	}
	if nsp > maxSpaces {
		return &CorruptError{Section: d.section, Reason: "space count exceeds limit"}
	}
	for i := uint32(0); i < nsp; i++ {
		nl, err := d.u16("space name length")
		if err != nil {
			return err
		}
		nb, err := d.need(int(nl), "space name")
		if err != nil {
			return err
		}
		nv, err := d.u32("space value count")
		if err != nil {
			return err
		}
		if nv > maxSpaceVals {
			return &CorruptError{Section: d.section, Reason: "space value count exceeds limit"}
		}
		sp := SpaceState{Name: string(nb), Vals: make([]uint64, nv)}
		for k := range sp.Vals {
			if sp.Vals[k], err = d.u64("space values"); err != nil {
				return err
			}
		}
		st.Spaces = append(st.Spaces, sp)
	}
	return d.leftover()
}

func decodeMemory(payload []byte, st *State) error {
	d := &decoder{b: payload, section: "memory section"}
	ps, err := d.u32("page size")
	if err != nil {
		return err
	}
	if int(ps) != mach.PageSize() {
		return &CorruptError{Section: d.section, Reason: fmt.Sprintf("page size %d, want %d", ps, mach.PageSize())}
	}
	np, err := d.u32("page count")
	if err != nil {
		return err
	}
	// Exact-length check makes the page loop allocation-safe: the count
	// must match the remaining payload precisely.
	if uint64(len(d.b)) != uint64(np)*(16+uint64(ps)) {
		return &CorruptError{Section: d.section, Reason: "page count disagrees with payload length"}
	}
	var prev uint64
	for i := uint32(0); i < np; i++ {
		base, err := d.u64("page base")
		if err != nil {
			return err
		}
		if base%uint64(ps) != 0 {
			return &CorruptError{Section: d.section, Reason: "page base misaligned"}
		}
		if i > 0 && base <= prev {
			return &CorruptError{Section: d.section, Reason: "page bases not strictly ascending"}
		}
		prev = base
		gen, err := d.u64("page gen")
		if err != nil {
			return err
		}
		data, err := d.need(int(ps), "page data")
		if err != nil {
			return err
		}
		st.Pages = append(st.Pages, PageState{Base: base, Gen: gen, Data: append([]byte(nil), data...)})
	}
	return d.leftover()
}

func decodeMeta(payload []byte, st *State) error {
	d := &decoder{b: payload, section: "meta section"}
	n, err := d.u32("meta count")
	if err != nil {
		return err
	}
	st.Meta = map[string][]byte{}
	for i := uint32(0); i < n; i++ {
		kl, err := d.u16("meta key length")
		if err != nil {
			return err
		}
		if kl > maxMetaKey {
			return &CorruptError{Section: d.section, Reason: "meta key exceeds limit"}
		}
		kb, err := d.need(int(kl), "meta key")
		if err != nil {
			return err
		}
		vl, err := d.u32("meta value length")
		if err != nil {
			return err
		}
		if uint64(vl) > uint64(len(d.b)) {
			return &CorruptError{Section: d.section, Reason: "meta value exceeds payload"}
		}
		vb, err := d.need(int(vl), "meta value")
		if err != nil {
			return err
		}
		key := string(kb)
		if _, dup := st.Meta[key]; dup {
			return &CorruptError{Section: d.section, Reason: "duplicate meta key"}
		}
		st.Meta[key] = append([]byte(nil), vb...)
	}
	return d.leftover()
}

// Encode renders st to a byte slice (Write into a buffer).
func Encode(st *State) []byte {
	var buf bytes.Buffer
	// Write into a buffer cannot fail.
	_ = Write(&buf, st)
	return buf.Bytes()
}

// Decode parses a checkpoint from a byte slice.
func Decode(b []byte) (*State, error) { return Read(bytes.NewReader(b)) }
