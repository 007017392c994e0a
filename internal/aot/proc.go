package aot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/mach"
	"singlespec/internal/obs"
)

// maxFrame bounds a protocol frame in either direction. A length beyond it
// is corruption (or an adversarial peer), not data.
const maxFrame = 1 << 26

// ProtocolError is the typed error for any malformed runner-protocol frame.
// Decoders return it (wrapped with frame context) for every corrupted,
// truncated, or oversized input — never a panic or an unbounded loop.
type ProtocolError struct {
	Frame string // which frame kind was being decoded
	Msg   string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("aot: protocol: %s frame: %s", e.Frame, e.Msg)
}

func perr(frame, format string, args ...any) error {
	return &ProtocolError{Frame: frame, Msg: fmt.Sprintf(format, args...)}
}

// Hello is the runner's startup self-description, verified against the
// host's expectation so a cache mixup can never silently run the wrong
// simulator.
type Hello struct {
	Spec     string
	Buildset string
	VisNames []string
	NumEps   int
	Block    bool
	EmitRecs bool
}

// FinalState is the runner's end-of-run report.
type FinalState struct {
	Halted     bool
	ExitCode   int64
	Fault      mach.Fault
	PC         uint64
	Instret    uint64
	ElapsedNs  uint64
	ResultWord uint32
	Spaces     [][]uint64
	Stdout     []byte
}

// RunResult is everything one 'R' command produced. Records, and each
// record's Vals, live in storage the client reuses and hands to the next
// client when it closes: they stay valid until the next Run on the same
// client or that client's Close, so a caller that keeps records longer
// copies them.
type RunResult struct {
	Records []core.Record
	FinalState
}

// recordStore is the storage one client decodes its runs' records into,
// kept from one run to the next, so a run allocates nothing for its records
// once the client has delivered a run at least as large. A store belongs to
// one client at a time, which is used from one goroutine, so it needs no
// lock; a closing client hands it on through spare.
type recordStore struct {
	recs  []core.Record
	slabs [][]uint64 // slabs[i] holds the values of a run's i-th record frame
	n     int        // record frames decoded so far in the current run
}

// spare is the store of a closed client, which the next client to open
// takes, so a session does not regrow its storage from empty. Of two stores
// it keeps the larger, so a process holds at most one idle store: the
// largest any of its clients has delivered.
var spare struct {
	mu    sync.Mutex
	store recordStore
}

// takeStore hands the spare store to a client that is opening.
func takeStore() recordStore {
	spare.mu.Lock()
	defer spare.mu.Unlock()
	s := spare.store
	spare.store = recordStore{}
	return s
}

// giveStore takes back a closing client's store, unless the spare is
// larger.
func giveStore(s recordStore) {
	spare.mu.Lock()
	defer spare.mu.Unlock()
	if s.bytes() > spare.store.bytes() {
		spare.store = s
	}
}

// bytes is the capacity the store holds.
func (s *recordStore) bytes() int {
	n := cap(s.recs) * int(unsafe.Sizeof(core.Record{}))
	for _, sl := range s.slabs {
		n += 8 * cap(sl)
	}
	return n
}

// reset starts a run, whose records overwrite the last run's.
func (s *recordStore) reset() { s.recs, s.n = s.recs[:0], 0 }

// decode appends the records of one 'R' frame, the n-th of the run, to
// s.recs, with their values in slab n.
func (s *recordStore) decode(p []byte, nVis int) error {
	if s.n == len(s.slabs) {
		s.slabs = append(s.slabs, nil)
	}
	var err error
	s.recs, s.slabs[s.n], err = decodeRecordsFrame(p, nVis, s.recs, s.slabs[s.n])
	s.n++
	return err
}

// TimeoutError reports a runner process that stopped responding: no frame
// crossed the pipe within the hard deadline, so the process was killed
// (SIGTERM, then SIGKILL after a grace period). It is a distinct type —
// not a *ProtocolError — because a wedged runner is a transient host
// condition the caller may retry, not a malformed byte stream.
type TimeoutError struct {
	Op      string        // what the host was waiting on ("run", "init", "hello")
	Timeout time.Duration // the hard deadline that expired
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("aot: runner unresponsive during %s: no frame within %v; process killed", e.Op, e.Timeout)
}

// defaultKillGrace is how long a timed-out runner gets to honor SIGTERM
// before the escalation to SIGKILL.
const defaultKillGrace = 2 * time.Second

// Client is one live runner session, whatever the transport: a *Runner
// subprocess over the pipe protocol, or a *PluginSession executing in
// process (see plugin.go). Both speak identical frame payloads, so every
// consumer (bench cells, the differential harness) is transport-agnostic.
//
// Run's result is valid until the next Run on the same client or that
// client's Close: its Records and their Vals are decoded into storage the
// client reuses, and which Close hands to the next client.
type Client interface {
	Hello() Hello
	Init(prog *asm.Program, stdin []byte) error
	Run(maxInstr uint64, wantRecs bool, resultAddr uint64) (*RunResult, error)
	Close() error
}

// Runner is a live runner subprocess speaking the frame protocol.
type Runner struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	stderr bytes.Buffer
	hello  Hello
	reg    *obs.Registry
	broken bool
	frame  []byte // read buffer, reused for every frame
	store  recordStore
	// hardTimeout bounds every blocking protocol exchange (see
	// SetHardDeadline); 0 means unbounded (the pre-watchdog behavior).
	hardTimeout time.Duration
	killGrace   time.Duration
	// timedOut is set by the watchdog before it kills the process, so the
	// pipe error the blocked read/write then observes is reported as a
	// *TimeoutError instead of a generic protocol error. It is allocated
	// apart from the Runner so the watchdog's timers, which the runtime
	// may hold for a while after they stop, do not keep the Runner alive.
	timedOut *atomic.Bool
}

// Spawn starts the runner binary and consumes its hello frame.
func Spawn(binPath string, reg *obs.Registry) (*Runner, error) {
	return SpawnWithDeadline(binPath, reg, 0)
}

// SpawnWithDeadline is Spawn with a hard per-exchange deadline armed from
// the very first (hello) read, so even a runner that wedges before its
// first frame is killed and reported with a typed *TimeoutError.
func SpawnWithDeadline(binPath string, reg *obs.Registry, deadline time.Duration) (*Runner, error) {
	cmd := exec.Command(binPath)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	r := &Runner{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), reg: reg,
		timedOut: new(atomic.Bool)}
	r.SetHardDeadline(deadline)
	cmd.Stderr = &r.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("aot: spawning runner: %w", err)
	}
	count(reg, "aot.spawn")
	var frame []byte
	err = r.watch("hello", func() error {
		var ferr error
		frame, ferr = r.readFrame()
		return ferr
	})
	if err != nil {
		r.kill()
		if _, ok := err.(*TimeoutError); ok {
			return nil, err
		}
		return nil, fmt.Errorf("aot: reading hello: %w%s", err, r.stderrSuffix())
	}
	hello, err := decodeHelloFrame(frame)
	if err != nil {
		r.kill()
		return nil, err
	}
	r.hello = *hello
	r.store = takeStore()
	return r, nil
}

// SetHardDeadline arms a hard wall-clock watchdog over every subsequent
// blocking protocol exchange (Init, Run, and the Spawn hello read): if the
// exchange has not completed within d, the runner process is sent SIGTERM,
// then SIGKILL after a grace period, and the exchange returns a typed
// *TimeoutError. This is the guarantee that a wedged runner — stuck in a
// loop, blocked on a full pipe, or silently dead — can never hang its cell:
// nothing in the host can preempt a blocked pipe read, but killing the
// process forces the read to fail. d <= 0 disables
// the watchdog.
func (r *Runner) SetHardDeadline(d time.Duration) { r.hardTimeout = d }

// watch runs one blocking protocol exchange under the hard deadline.
func (r *Runner) watch(op string, f func() error) error {
	if r.hardTimeout <= 0 {
		return f()
	}
	grace := r.killGrace
	if grace <= 0 {
		grace = defaultKillGrace
	}
	// The timers capture the process and the flag, never r.
	p, timedOut := r.cmd.Process, r.timedOut
	timer := time.AfterFunc(r.hardTimeout, func() {
		timedOut.Store(true)
		if p != nil {
			// Escalation: a polite SIGTERM first (lets a live-but-slow
			// runner flush and exit), SIGKILL if it has not died by the
			// end of the grace period. Killing closes the pipes, which
			// unblocks the stalled read or write below.
			if err := p.Signal(syscall.SIGTERM); err != nil {
				_ = p.Kill()
				return
			}
			time.AfterFunc(grace, func() { _ = p.Kill() })
		}
	})
	err := f()
	timer.Stop()
	if err != nil && timedOut.Load() {
		r.broken = true
		return &TimeoutError{Op: op, Timeout: r.hardTimeout}
	}
	return err
}

// Hello returns the runner's self-description.
func (r *Runner) Hello() Hello { return r.hello }

func (r *Runner) stderrSuffix() string {
	if s := bytes.TrimSpace(r.stderr.Bytes()); len(s) > 0 {
		return "\nrunner stderr: " + string(s)
	}
	return ""
}

// readFrame reads one frame into the runner's read buffer, which it grows
// only for a longer frame; the frame is valid until the next readFrame.
func (r *Runner) readFrame() ([]byte, error) {
	// Peek, not ReadFull into a local array: the array would escape through
	// io.Reader and cost an allocation per frame.
	lb, err := r.stdout.Peek(4)
	if err != nil {
		return nil, perr("stream", "reading frame length: %v", noEOF(err))
	}
	n := binary.LittleEndian.Uint32(lb)
	_, _ = r.stdout.Discard(4)
	if n == 0 || n > maxFrame {
		return nil, perr("stream", "frame length %d out of range", n)
	}
	if int(n) > cap(r.frame) {
		r.frame = make([]byte, n)
	}
	buf := r.frame[:n]
	if _, err := io.ReadFull(r.stdout, buf); err != nil {
		return nil, perr("stream", "reading %d-byte frame: %v", n, noEOF(err))
	}
	if r.reg != nil {
		r.reg.Counter("aot.proto.rx").Add(uint64(n) + 4)
	}
	return buf, nil
}

func (r *Runner) writeFrame(payload []byte) error {
	// One gathered write per frame (prefix + payload) so a frame costs one
	// syscall on the pipe, matching the runner's batched reads.
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	if _, err := r.stdin.Write(buf); err != nil {
		return fmt.Errorf("aot: writing frame: %w%s", err, r.stderrSuffix())
	}
	if r.reg != nil {
		r.reg.Counter("aot.proto.tx").Add(uint64(len(payload)) + 4)
	}
	return nil
}

// encodeInitPayload builds the 'I' frame payload (tag included) shared by
// the subprocess and plugin transports.
func encodeInitPayload(prog *asm.Program, stdin []byte) []byte {
	p := []byte{'I'}
	p = binary.LittleEndian.AppendUint64(p, prog.Entry)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(prog.Segments)))
	for _, sg := range prog.Segments {
		p = binary.LittleEndian.AppendUint16(p, uint16(len(sg.Name)))
		p = append(p, sg.Name...)
		p = binary.LittleEndian.AppendUint64(p, sg.Addr)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(sg.Data)))
		p = append(p, sg.Data...)
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(stdin)))
	p = append(p, stdin...)
	return p
}

// encodeRunPayload builds the 'R' frame payload (tag included).
func encodeRunPayload(maxInstr uint64, wantRecs bool, resultAddr uint64) []byte {
	p := []byte{'R'}
	p = binary.LittleEndian.AppendUint64(p, maxInstr)
	wr := byte(0)
	if wantRecs {
		wr = 1
	}
	p = append(p, wr)
	p = binary.LittleEndian.AppendUint64(p, resultAddr)
	return p
}

// Init ships the program image and emulated-OS stdin to the runner. The
// runner loads every segment and parks the PC at the entry point; each Run
// then resets architectural state exactly like one interpreter cell reset.
func (r *Runner) Init(prog *asm.Program, stdin []byte) error {
	p := encodeInitPayload(prog, stdin)
	return r.watch("init", func() error { return r.writeFrame(p) })
}

// Run executes the loaded program once (after an architectural reset) with
// the given retired-instruction budget, optionally streaming the per-record
// visibility stream, and returns the runner's full report. resultAddr, when
// nonzero, asks the runner to read back a 32-bit result word from memory.
// The report's records are valid until the next Run (see RunResult).
func (r *Runner) Run(maxInstr uint64, wantRecs bool, resultAddr uint64) (*RunResult, error) {
	if r.broken {
		return nil, fmt.Errorf("aot: runner already failed; spawn a fresh one")
	}
	p := encodeRunPayload(maxInstr, wantRecs, resultAddr)
	var res *RunResult
	err := r.watch("run", func() (err error) {
		if err = r.writeFrame(p); err != nil {
			return err
		}
		res, err = runFrames(func() ([]byte, error) {
			frame, err := r.readFrame()
			if err != nil {
				return nil, fmt.Errorf("%w%s", err, r.stderrSuffix())
			}
			return frame, nil
		}, len(r.hello.VisNames), &r.store)
		return err
	})
	if err != nil {
		r.broken = true
		return nil, err
	}
	return res, nil
}

// runFrames dispatches one run's reply, whose frames next yields in order:
// record batches, then the final frame. Both transports feed it, so a reply
// means the same whichever carried it; any other sequence is a
// *ProtocolError. Records are decoded into the client's store, from its
// start, so the result's records are valid until the store's next run.
func runFrames(next func() ([]byte, error), nVis int, store *recordStore) (*RunResult, error) {
	store.reset()
	res := &RunResult{}
	for {
		frame, err := next()
		if err != nil {
			return nil, err
		}
		if len(frame) == 0 {
			return nil, perr("stream", "empty frame")
		}
		switch frame[0] {
		case 'R':
			if err := store.decode(frame, nVis); err != nil {
				return nil, err
			}
		case 'F':
			fin, err := decodeFinalFrame(frame)
			if err != nil {
				return nil, err
			}
			res.Records = store.recs
			res.FinalState = *fin
			return res, nil
		default:
			return nil, perr("stream", "unexpected frame type %#x", frame[0])
		}
	}
}

// runReply is runFrames over a whole reply held in memory, as the plugin
// transport returns it: the reply must end exactly at its final frame.
func runReply(frames [][]byte, nVis int, store *recordStore) (*RunResult, error) {
	n := 0
	res, err := runFrames(func() ([]byte, error) {
		if n == len(frames) {
			return nil, perr("stream", "reply ended without a final frame")
		}
		n++
		return frames[n-1], nil
	}, nVis, store)
	if err == nil && n < len(frames) {
		return nil, perr("stream", "%d frames after the final frame", len(frames)-n)
	}
	return res, err
}

// Close shuts the runner down: a quit frame, stdin close, and a bounded
// wait before killing outright. It hands the record storage to the next
// client, so the last Run's records are invalid after it.
func (r *Runner) Close() error {
	giveStore(r.store)
	r.store, r.frame = recordStore{}, nil
	if r.cmd.Process == nil {
		return nil
	}
	_ = r.writeFrame([]byte{'Q'})
	_ = r.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- r.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		r.kill()
		return <-done
	}
}

func (r *Runner) kill() {
	if r.cmd.Process != nil {
		_ = r.cmd.Process.Kill()
		_ = r.cmd.Wait()
	}
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---- frame decoders ----
//
// The decoders are pure functions over a complete frame payload (type byte
// included) so the fuzz harness can feed them arbitrary bytes directly.
// Every count read from the wire is validated against the bytes actually
// present before any loop runs on it: corrupted input costs at most one
// pass over the frame, never an attacker-chosen iteration count.

type wireDec struct {
	frame string
	b     []byte
	off   int
	err   error
}

func (d *wireDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = perr(d.frame, format, args...)
	}
}

func (d *wireDec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated at offset %d (need %d bytes of %d)", d.off, n, len(d.b))
		return false
	}
	return true
}

func (d *wireDec) rem() int { return len(d.b) - d.off }

func (d *wireDec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *wireDec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *wireDec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *wireDec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *wireDec) bytes(n int) []byte {
	if !d.need(n) {
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *wireDec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return perr(d.frame, "%d trailing bytes after payload", len(d.b)-d.off)
	}
	return nil
}

const maxNameLen = 256

func (d *wireDec) str16() string {
	n := int(d.u16())
	if n > maxNameLen {
		d.fail("implausible name length %d", n)
		return ""
	}
	return string(d.bytes(n))
}

// decodeHelloFrame parses the runner's startup frame.
func decodeHelloFrame(p []byte) (*Hello, error) {
	d := &wireDec{frame: "hello", b: p}
	if d.u8() != 'H' {
		return nil, perr("hello", "bad frame type")
	}
	h := &Hello{}
	h.Spec = d.str16()
	h.Buildset = d.str16()
	nVis := d.u32()
	if nVis > 1<<16 {
		return nil, perr("hello", "implausible visible-field count %d", nVis)
	}
	for i := uint32(0); i < nVis && d.err == nil; i++ {
		h.VisNames = append(h.VisNames, d.str16())
	}
	numEps := d.u32()
	if numEps == 0 || numEps > 64 {
		d.fail("implausible entrypoint count %d", numEps)
	}
	h.NumEps = int(numEps)
	h.Block = d.u8() != 0
	h.EmitRecs = d.u8() != 0
	if err := d.finish(); err != nil {
		return nil, err
	}
	return h, nil
}

// decodeRecordsFrame parses one 'R' frame of visibility records, appending
// to out. nVis is the per-record value count from the hello frame. The
// values go into slab, which is reallocated only when it holds fewer than
// the frame needs and is returned for the next frame; each record gets a
// full-capacity subslice of it, so appending to one record's values cannot
// overwrite the next record's.
func decodeRecordsFrame(p []byte, nVis int, out []core.Record, slab []uint64) ([]core.Record, []uint64, error) {
	d := &wireDec{frame: "records", b: p}
	if d.u8() != 'R' {
		return out, slab, perr("records", "bad frame type")
	}
	nRecs := int(d.u32())
	if d.err != nil {
		return out, slab, d.err
	}
	if nVis < 0 || nVis > 1<<16 {
		return out, slab, perr("records", "implausible value count %d", nVis)
	}
	recSize := 32 + 8*nVis
	if int64(nRecs)*int64(recSize) != int64(d.rem()) {
		return out, slab, perr("records", "count %d disagrees with %d payload bytes (record size %d)",
			nRecs, d.rem(), recSize)
	}
	// The check above makes the payload exactly nRecs records long, so the
	// loop indexes it directly.
	if cap(slab) < nRecs*nVis {
		slab = make([]uint64, nRecs*nVis)
	}
	base := len(out)
	out = slices.Grow(out, nRecs)[:base+nRecs]
	b := p[d.off:]
	for i := range out[base:] {
		rec := &out[base+i]
		*rec = core.Record{
			PC:        binary.LittleEndian.Uint64(b[0:]),
			PhysPC:    binary.LittleEndian.Uint64(b[8:]),
			NextPC:    binary.LittleEndian.Uint64(b[16:]),
			InstrBits: binary.LittleEndian.Uint32(b[24:]),
			InstrID:   binary.LittleEndian.Uint16(b[28:]),
			Fault:     mach.Fault(b[30]),
			Nullified: b[31] != 0,
		}
		if nVis > 0 {
			vals := slab[i*nVis : (i+1)*nVis : (i+1)*nVis]
			for j := range vals {
				vals[j] = binary.LittleEndian.Uint64(b[32+8*j:])
			}
			rec.Vals = vals
		}
		b = b[recSize:]
	}
	return out, slab, nil
}

// decodeFinalFrame parses the 'F' end-of-run report.
func decodeFinalFrame(p []byte) (*FinalState, error) {
	d := &wireDec{frame: "final", b: p}
	if d.u8() != 'F' {
		return nil, perr("final", "bad frame type")
	}
	f := &FinalState{}
	f.Halted = d.u8() != 0
	f.ExitCode = int64(d.u64())
	f.Fault = mach.Fault(d.u8())
	f.PC = d.u64()
	f.Instret = d.u64()
	f.ElapsedNs = d.u64()
	f.ResultWord = d.u32()
	nSpaces := d.u32()
	if nSpaces > 256 {
		return nil, perr("final", "implausible space count %d", nSpaces)
	}
	for i := uint32(0); i < nSpaces && d.err == nil; i++ {
		cnt := d.u32()
		if int64(cnt)*8 > int64(d.rem()) {
			return nil, perr("final", "space %d claims %d registers with %d bytes left", i, cnt, d.rem())
		}
		vals := make([]uint64, cnt)
		for j := range vals {
			vals[j] = d.u64()
		}
		f.Spaces = append(f.Spaces, vals)
	}
	outLen := d.u32()
	if int64(outLen) > int64(d.rem()) {
		return nil, perr("final", "stdout claims %d bytes with %d left", outLen, d.rem())
	}
	f.Stdout = append([]byte(nil), d.bytes(int(outLen))...)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return f, nil
}
