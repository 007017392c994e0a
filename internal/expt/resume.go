package expt

// Durable sweeps: a run journal makes the experiment engine resumable. As
// each cell completes with a deterministic outcome (ok, failed, budget),
// one record is appended and fsynced; a rerun with the same configuration
// opens the journal, reloads those cells, and computes only what is
// missing. The format is append-only with a CRC per record, so a process
// killed mid-append leaves a torn final record that is detected, dropped,
// and overwritten by the resumed run — never silently half-parsed. A CRC
// failure anywhere *before* the final record is not a torn write (appends
// only tear at the tail) and is reported as corruption instead.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// JournalName is the file name of a run journal inside its directory.
const JournalName = "journal.ssj"

// maxJournalRecord bounds one record's payload; real records are a few KiB.
const maxJournalRecord = 1 << 24

// journalRecord is the JSON payload of one journal record. Type is "run"
// for a lineage header (one per process that wrote to the journal), "cell"
// for a completed sweep cell, or "raw" for an opaque completion payload
// owned by another package (fault-campaign cells ride this way).
type journalRecord struct {
	Type string `json:"type"`

	// Run-header fields.
	RunID       string `json:"run_id,omitempty"`
	ParentRunID string `json:"parent_run_id,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// Cell fields.
	Key    string    `json:"key,omitempty"`
	Status string    `json:"status,omitempty"`
	ErrMsg string    `json:"err,omitempty"`
	Cell   *cellData `json:"cell,omitempty"`

	// Raw payload (Type "raw" only): the owning package's own encoding,
	// protected by the same framing CRC as everything else.
	Raw json.RawMessage `json:"raw,omitempty"`
}

// cellData is the journaled slice of a Cell: every deterministic field plus
// the wall observations (which reload as historical values). The live
// Cell.Err is reconstructed from Status/ErrMsg.
type cellData struct {
	ISA          string    `json:"isa"`
	Buildset     string    `json:"buildset"`
	Backend      string    `json:"backend,omitempty"`
	MIPS         float64   `json:"mips,omitempty"`
	NsPerInstr   float64   `json:"ns_per_instr,omitempty"`
	WorkPerInstr float64   `json:"work_per_instr,omitempty"`
	Instret      uint64    `json:"instret"`
	WorkUnits    uint64    `json:"work_units"`
	Attempts     int       `json:"attempts"`
	WallNS       int64     `json:"wall_ns"`
	Stats        CellStats `json:"stats"`
}

// cellRecord builds the record of one completed cell — the payload the run
// journal, worker segments and the fabric wire all carry.
func cellRecord(key string, c Cell) journalRecord {
	r := journalRecord{Type: "cell", Key: key, Status: "ok", Cell: &cellData{
		ISA: c.ISA, Buildset: c.Buildset, Backend: c.Backend,
		MIPS: c.MIPS, NsPerInstr: c.NsPerInstr, WorkPerInstr: c.WorkPerInstr,
		Instret: c.Instret, WorkUnits: c.WorkUnits,
		Attempts: c.Attempts, WallNS: int64(c.Wall),
		Stats: c.Stats,
	}}
	if c.Err != nil {
		r.Status = c.Err.Kind.String()
		r.ErrMsg = c.Err.Err.Error()
	}
	return r
}

// cell rebuilds the Cell a cellRecord carries, marked computed (not
// Restored).
func (r journalRecord) cell() Cell {
	d := r.Cell
	c := Cell{
		ISA: d.ISA, Buildset: d.Buildset, Backend: d.Backend,
		MIPS: d.MIPS, NsPerInstr: d.NsPerInstr, WorkPerInstr: d.WorkPerInstr,
		Instret: d.Instret, WorkUnits: d.WorkUnits,
		Attempts: d.Attempts, Wall: time.Duration(d.WallNS),
		Stats: d.Stats,
	}
	if r.Status != "ok" {
		kind := CellFailed
		for _, k := range []CellErrorKind{CellPanic, CellTimeout, CellBudget, CellInterrupted, CellLost} {
			if r.Status == k.String() {
				kind = k
			}
		}
		c.Err = &CellError{ISA: d.ISA, Buildset: d.Buildset, Kind: kind,
			Err: fmt.Errorf("%s (restored from journal)", r.ErrMsg), Attempts: d.Attempts}
	}
	return c
}

// FingerprintMismatchError reports a journal written under a different
// sweep configuration than the resuming run's: resuming would mix
// incompatible results.
type FingerprintMismatchError struct {
	Path string
	Got  string // fingerprint in the journal
	Want string // fingerprint of the resuming run
}

func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("expt: journal %s was written by a different configuration (fingerprint %.12s…, this run is %.12s…); use a fresh -resume-dir or matching flags",
		e.Path, e.Got, e.Want)
}

// JournalExistsError reports an existing journal opened without resume: the
// caller must opt into resuming (or use a fresh directory) so a stale
// journal is never silently mixed into a new sweep.
type JournalExistsError struct{ Path string }

func (e *JournalExistsError) Error() string {
	return fmt.Sprintf("expt: journal %s already exists; pass -resume to continue it or use a fresh -resume-dir", e.Path)
}

// CorruptJournalError reports damage before the final record — not a torn
// append (those only occur at the tail and are dropped) but real
// mid-file corruption, which resuming must refuse to build on.
type CorruptJournalError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptJournalError) Error() string {
	return fmt.Sprintf("expt: journal %s corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// recordFile is an open journal or segment file. Records are appended
// whole and fsynced one at a time, under mu.
type recordFile struct {
	mu sync.Mutex
	f  *os.File
}

// open opens (creating if needed) the file at path, drops everything past
// off — a torn tail, or a previous run's segment — and durably appends the
// lineage header hdr. The directories it creates, and a newly created file,
// have their parent directory fsynced too, so the file itself survives a
// crash.
func (l *recordFile) open(path string, off int64, hdr journalRecord) error {
	dir := filepath.Dir(path)
	if err := mkdirSynced(dir); err != nil {
		return err
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	err = f.Truncate(off)
	if err == nil {
		_, err = f.Seek(off, io.SeekStart)
	}
	if err == nil {
		err = l.append(hdr)
	}
	if err == nil && os.IsNotExist(statErr) {
		err = syncDir(dir)
	}
	if err != nil {
		f.Close()
	}
	return err
}

// mkdirSynced is os.MkdirAll that also fsyncs the parent of every
// directory it creates.
func mkdirSynced(dir string) error {
	var created []string
	for d := dir; filepath.Dir(d) != d; d = filepath.Dir(d) {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			break
		}
		created = append(created, d)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range created {
		if err := syncDir(filepath.Dir(d)); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory, making an entry just created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// append frames one record — u32-LE payload length, u32-LE CRC-32 of the
// payload, JSON payload — and durably appends it.
func (l *recordFile) append(r journalRecord) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the file.
func (l *recordFile) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// RunJournal is the append-only completion journal of one sweep directory.
// It is safe for concurrent use by the sweep's workers.
type RunJournal struct {
	recordFile

	runID       string
	parentRunID string

	cells map[string]journalRecord
	// restoredKeys are the cells loaded from a previous run, in journal
	// order — the resume lineage the manifest reports.
	restoredKeys []string
}

// OpenJournal opens (or creates) the run journal in dir.
//
// A fresh journal is stamped with runID and fingerprint. When a journal
// already exists, resume must be true (else *JournalExistsError), its
// fingerprint must match (else *FingerprintMismatchError), and its
// completed cells become available via Lookup; a torn final record is
// dropped and the file truncated back to the last good record. A new
// lineage header is then appended recording runID with the previous run as
// parent.
func OpenJournal(dir, runID, fingerprint string, resume bool) (*RunJournal, error) {
	path := filepath.Join(dir, JournalName)
	j := &RunJournal{runID: runID, cells: map[string]journalRecord{}}

	data, err := os.ReadFile(path)
	exists := err == nil && len(data) > 0
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if exists && !resume {
		return nil, &JournalExistsError{Path: path}
	}

	goodLen := int64(0)
	if exists {
		recs, good, lerr := parseJournal(path, data)
		if lerr != nil {
			return nil, lerr
		}
		goodLen = good
		prevFP := ""
		for _, r := range recs {
			switch r.Type {
			case "run":
				prevFP = r.Fingerprint
				j.parentRunID = r.RunID
			case "cell", "raw":
				if _, dup := j.cells[r.Key]; !dup {
					j.restoredKeys = append(j.restoredKeys, r.Key)
				}
				j.cells[r.Key] = r
			}
		}
		if prevFP != fingerprint {
			return nil, &FingerprintMismatchError{Path: path, Got: prevFP, Want: fingerprint}
		}
	}

	if err := j.open(path, goodLen, journalRecord{
		Type: "run", RunID: runID, ParentRunID: j.parentRunID, Fingerprint: fingerprint,
	}); err != nil {
		return nil, err
	}
	return j, nil
}

// parseJournal walks the record stream, returning the records and the byte
// length of the valid prefix. A damaged or incomplete FINAL record is
// tolerated (torn append) and excluded from the valid prefix; damage with
// further data after it is a *CorruptJournalError. The length field is
// outside the CRC, so a record that claims to run past EOF is only taken
// for the torn final append when no intact record starts after its header.
func parseJournal(path string, data []byte) ([]journalRecord, int64, error) {
	var recs []journalRecord
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			break // torn tail: a partial header
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxJournalRecord || off+8+length > len(data) {
			// Claimed extent runs past EOF (or is garbage exceeding it):
			// only tolerable as the final, torn append.
			if intactRecordFrom(data, off+8) {
				return nil, 0, &CorruptJournalError{Path: path, Offset: int64(off),
					Reason: "record length runs past EOF with an intact record after it"}
			}
			break
		}
		payload := data[off+8 : off+8+length]
		if crc32.ChecksumIEEE(payload) != sum {
			if off+8+length == len(data) {
				break // torn final record
			}
			return nil, 0, &CorruptJournalError{Path: path, Offset: int64(off),
				Reason: "record CRC mismatch with further records after it"}
		}
		var r journalRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			if off+8+length == len(data) {
				break
			}
			return nil, 0, &CorruptJournalError{Path: path, Offset: int64(off),
				Reason: "record payload is not valid JSON: " + err.Error()}
		}
		recs = append(recs, r)
		off += 8 + length
	}
	return recs, int64(off), nil
}

// intactRecordFrom reports whether a whole record — length in bounds, CRC
// and JSON valid — starts at any offset from off on.
func intactRecordFrom(data []byte, off int) bool {
	for ; off+8 <= len(data); off++ {
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length > maxJournalRecord || off+8+length > len(data) {
			continue
		}
		payload := data[off+8 : off+8+length]
		if crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(data[off+4:]) && json.Valid(payload) {
			return true
		}
	}
	return false
}

// Lookup returns the journaled result for a cell key, if a previous run
// completed it.
func (j *RunJournal) Lookup(key string) (Cell, bool) {
	j.mu.Lock()
	r, ok := j.cells[key]
	j.mu.Unlock()
	if !ok || r.Cell == nil {
		return Cell{}, false
	}
	c := r.cell()
	c.Restored = true
	return c, true
}

// Record journals one completed cell. Only deterministic outcomes belong
// here (ok, failed, budget); transient outcomes (panic, timeout,
// interrupted) are the caller's to re-run.
func (j *RunJournal) Record(key string, c Cell) error {
	return j.record(cellRecord(key, c))
}

// RecordRaw journals one completed cell whose payload another package
// owns (encoding and decoding included); the journal only guarantees the
// bytes survive intact. Like Record, only deterministic outcomes belong
// here.
func (j *RunJournal) RecordRaw(key string, raw []byte) error {
	return j.record(journalRecord{Type: "raw", Key: key, Raw: json.RawMessage(raw)})
}

// record durably appends r and makes it visible to Lookup.
func (j *RunJournal) record(r journalRecord) error {
	if err := j.append(r); err != nil {
		return err
	}
	j.mu.Lock()
	j.cells[r.Key] = r
	j.mu.Unlock()
	return nil
}

// LookupRaw returns the journaled raw payload for a key, if a previous run
// recorded one with RecordRaw.
func (j *RunJournal) LookupRaw(key string) ([]byte, bool) {
	j.mu.Lock()
	r, ok := j.cells[key]
	j.mu.Unlock()
	if !ok || r.Type != "raw" || len(r.Raw) == 0 {
		return nil, false
	}
	return append([]byte(nil), r.Raw...), true
}

// RunID returns this run's lineage id; ParentRunID returns the id of the
// run this one resumed from ("" for a fresh journal).
func (j *RunJournal) RunID() string       { return j.runID }
func (j *RunJournal) ParentRunID() string { return j.parentRunID }

// Restored returns the number of cells loaded from previous runs.
func (j *RunJournal) Restored() int { return len(j.restoredKeys) }

// ---- worker segment files ----
//
// A fabric coordinator persists every result a worker delivers into a
// per-worker segment file in the run journal's CRC-framed record format,
// then merges the segments back at sweep end. The round trip means the
// merged tables are built from records that survived framing, CRC, and
// JSON validation end to end — and it gives the merge the same damage
// semantics as resume: a torn final record (the append that was in flight
// when a process died) is dropped; corruption anywhere before it refuses
// the merge with a *CorruptJournalError naming the file and offset.

// KeyedCell pairs a journaled cell with its job key.
type KeyedCell struct {
	Key  string
	Cell Cell
}

// Segment is an append-only per-worker completion journal.
type Segment struct{ recordFile }

// CreateSegment creates (truncating any previous file) a segment stamped
// with a lineage header carrying the worker id and the run's config
// fingerprint; LoadSegment verifies the fingerprint so a stale segment
// from an old run can never be merged into a new one.
func CreateSegment(path, workerID, fingerprint string) (*Segment, error) {
	s := &Segment{}
	if err := s.open(path, 0, journalRecord{Type: "run", RunID: workerID, Fingerprint: fingerprint}); err != nil {
		return nil, err
	}
	return s, nil
}

// Append durably appends one completed cell.
func (s *Segment) Append(key string, c Cell) error {
	return s.append(cellRecord(key, c))
}

// AppendRaw durably appends one completed cell in another package's own
// encoding (see RunJournal.RecordRaw).
func (s *Segment) AppendRaw(key string, raw []byte) error {
	return s.append(journalRecord{Type: "raw", Key: key, Raw: json.RawMessage(raw)})
}

// LoadSegment reads a segment file back: its fingerprint header must match
// fingerprint (a mismatched segment is a stale worker's and is refused with
// *FingerprintMismatchError), a torn final record is dropped, and mid-file
// corruption returns the parser's *CorruptJournalError with the damage
// offset. Cells come back marked computed (not Restored).
func LoadSegment(path, fingerprint string) ([]KeyedCell, error) {
	recs, err := loadSegment(path, fingerprint, "cell")
	if err != nil {
		return nil, err
	}
	var out []KeyedCell
	for _, r := range recs {
		if r.Cell != nil {
			out = append(out, KeyedCell{Key: r.Key, Cell: r.cell()})
		}
	}
	return out, nil
}

// KeyedRaw pairs a raw completion payload with its key.
type KeyedRaw struct {
	Key string
	Raw []byte
}

// LoadSegmentRaw reads a segment of raw-payload records back with the same
// header/fingerprint/torn-tail/corruption semantics as LoadSegment.
func LoadSegmentRaw(path, fingerprint string) ([]KeyedRaw, error) {
	recs, err := loadSegment(path, fingerprint, "raw")
	if err != nil {
		return nil, err
	}
	var out []KeyedRaw
	for _, r := range recs {
		if len(r.Raw) != 0 {
			out = append(out, KeyedRaw{Key: r.Key, Raw: append([]byte(nil), r.Raw...)})
		}
	}
	return out, nil
}

// loadSegment parses a segment file, checks its lineage header against
// fingerprint, and returns its records of type typ.
func loadSegment(path, fingerprint, typ string) ([]journalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, _, err := parseJournal(path, data)
	if err != nil {
		return nil, err
	}
	var out []journalRecord
	sawHeader := false
	for _, r := range recs {
		switch r.Type {
		case "run":
			sawHeader = true
			if r.Fingerprint != fingerprint {
				return nil, &FingerprintMismatchError{Path: path, Got: r.Fingerprint, Want: fingerprint}
			}
		case typ:
			out = append(out, r)
		}
	}
	if !sawHeader {
		return nil, &CorruptJournalError{Path: path, Offset: 0, Reason: "segment has no lineage header"}
	}
	return out, nil
}

// Fingerprint derives the configuration fingerprint a journal is stamped
// with: everything that determines which cells a sweep produces and what
// their deterministic fields contain. Host knobs that merely change how
// the same cells are computed (worker count, timeouts, checkpoint cadence)
// are deliberately excluded so a sweep can resume under different host
// conditions.
func Fingerprint(table string, cfg Config) string {
	keys := []string{
		"table=" + table,
		fmt.Sprintf("scale=%d", cfg.Scale),
		"metric=" + cfg.Metric.String(),
		fmt.Sprintf("max_cell_instr=%d", cfg.MaxCellInstr),
		"backend=" + cfg.Backend.String(),
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
