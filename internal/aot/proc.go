package aot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os/exec"
	"sync/atomic"
	"syscall"
	"time"

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

// RunResult is everything one 'R' command produced.
type RunResult struct {
	Records []core.Record
	FinalState
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
	// hardTimeout bounds every blocking protocol exchange (see
	// SetHardDeadline); 0 means unbounded (the pre-watchdog behavior).
	hardTimeout time.Duration
	killGrace   time.Duration
	// timedOut is set by the watchdog before it kills the process, so the
	// pipe error the blocked read/write then observes is reported as a
	// *TimeoutError instead of a generic protocol error.
	timedOut atomic.Bool
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
	r := &Runner{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), reg: reg}
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
	return r, nil
}

// SetHardDeadline arms a hard wall-clock watchdog over every subsequent
// blocking protocol exchange (Init, Run, and the Spawn hello read): if the
// exchange has not completed within d, the runner process is sent SIGTERM,
// then SIGKILL after a grace period, and the exchange returns a typed
// *TimeoutError. This is the guarantee that a wedged runner — stuck in a
// loop, blocked on a full pipe, or silently dead — can never hang its cell:
// the cooperative -cell-timeout watchdog cannot preempt a blocked pipe
// read, but killing the process forces the read to fail. d <= 0 disables
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
	timer := time.AfterFunc(r.hardTimeout, func() {
		r.timedOut.Store(true)
		if p := r.cmd.Process; p != nil {
			// Escalation: a polite SIGTERM first (lets a live-but-slow
			// runner flush and exit), SIGKILL if it has not died by the
			// end of the grace period. Killing closes the pipes, which
			// unblocks the stalled read or write below.
			if err := p.Signal(syscall.SIGTERM); err != nil {
				_ = p.Kill()
				return
			}
			time.AfterFunc(grace, func() {
				if p := r.cmd.Process; p != nil {
					_ = p.Kill()
				}
			})
		}
	})
	err := f()
	timer.Stop()
	if err != nil && r.timedOut.Load() {
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

func (r *Runner) readFrame() ([]byte, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r.stdout, lb[:]); err != nil {
		return nil, perr("stream", "reading frame length: %v", noEOF(err))
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n == 0 || n > maxFrame {
		return nil, perr("stream", "frame length %d out of range", n)
	}
	buf := make([]byte, n)
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
		}, len(r.hello.VisNames))
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
// *ProtocolError.
func runFrames(next func() ([]byte, error), nVis int) (*RunResult, error) {
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
			if res.Records, err = decodeRecordsFrame(frame, nVis, res.Records); err != nil {
				return nil, err
			}
		case 'F':
			fin, err := decodeFinalFrame(frame)
			if err != nil {
				return nil, err
			}
			res.FinalState = *fin
			return res, nil
		default:
			return nil, perr("stream", "unexpected frame type %#x", frame[0])
		}
	}
}

// runReply is runFrames over a whole reply held in memory, as the plugin
// transport returns it: the reply must end exactly at its final frame.
func runReply(frames [][]byte, nVis int) (*RunResult, error) {
	n := 0
	res, err := runFrames(func() ([]byte, error) {
		if n == len(frames) {
			return nil, perr("stream", "reply ended without a final frame")
		}
		n++
		return frames[n-1], nil
	}, nVis)
	if err == nil && n < len(frames) {
		return nil, perr("stream", "%d frames after the final frame", len(frames)-n)
	}
	return res, err
}

// Close shuts the runner down: a quit frame, stdin close, and a bounded
// wait before killing outright.
func (r *Runner) Close() error {
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
// to out. nVis is the per-record value count from the hello frame.
func decodeRecordsFrame(p []byte, nVis int, out []core.Record) ([]core.Record, error) {
	d := &wireDec{frame: "records", b: p}
	if d.u8() != 'R' {
		return out, perr("records", "bad frame type")
	}
	nRecs := d.u32()
	if d.err != nil {
		return out, d.err
	}
	if nVis < 0 || nVis > 1<<16 {
		return out, perr("records", "implausible value count %d", nVis)
	}
	recSize := 32 + 8*nVis
	if int64(nRecs)*int64(recSize) != int64(d.rem()) {
		return out, perr("records", "count %d disagrees with %d payload bytes (record size %d)",
			nRecs, d.rem(), recSize)
	}
	// One flat allocation of value storage per frame: with batched frames a
	// single 'R' frame can carry thousands of records, and a per-record
	// make() dominates the decode cost.
	var flat []uint64
	if nVis > 0 {
		flat = make([]uint64, int(nRecs)*nVis)
	}
	for i := uint32(0); i < nRecs; i++ {
		hdr := d.bytes(32)
		rec := core.Record{
			PC:        binary.LittleEndian.Uint64(hdr[0:]),
			PhysPC:    binary.LittleEndian.Uint64(hdr[8:]),
			NextPC:    binary.LittleEndian.Uint64(hdr[16:]),
			InstrBits: binary.LittleEndian.Uint32(hdr[24:]),
			InstrID:   binary.LittleEndian.Uint16(hdr[28:]),
			Fault:     mach.Fault(hdr[30]),
			Nullified: hdr[31] != 0,
		}
		if nVis > 0 {
			vals := flat[int(i)*nVis : (int(i)+1)*nVis : (int(i)+1)*nVis]
			for j := 0; j < nVis; j++ {
				vals[j] = d.u64()
			}
			rec.Vals = vals
		}
		out = append(out, rec)
	}
	if err := d.finish(); err != nil {
		return out, err
	}
	return out, nil
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
