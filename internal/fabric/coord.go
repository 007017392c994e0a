package fabric

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"singlespec/internal/expt"
	"singlespec/internal/obs"
)

// Config configures a fabric coordinator for a Table II sweep.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7707", or ":0" to let
	// the kernel pick — see Coordinator.Addr).
	Addr string
	// Sweep is the sweep configuration: it determines the cell list, the
	// membership fingerprint, and (via Journal/Obs/Interrupt) the run's
	// durability, instrumentation, and shutdown wiring. Sweep.Workers is
	// ignored — the fabric's parallelism is its worker fleet.
	Sweep expt.Config
	// LeaseTTL is how long a lease stays valid without a heartbeat before
	// the coordinator reclaims it; 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxCellTries bounds how many lease grants one cell gets across the
	// fleet before it is ERR-marked (kind "lost") instead of stalling the
	// sweep; 0 means DefaultMaxCellTries.
	MaxCellTries int
	// SegmentDir is where per-worker result segments are written (and
	// re-read at merge); empty uses a per-run temporary directory.
	SegmentDir string
	// Log, when non-nil, receives one-line progress events (worker joins,
	// takeovers, refusals) for the operator console.
	Log func(format string, args ...any)
}

// DefaultLeaseTTL is the lease validity window without a heartbeat.
const DefaultLeaseTTL = 10 * time.Second

// DefaultMaxCellTries bounds lease grants per cell across the fleet.
const DefaultMaxCellTries = 3

// helloTimeout bounds how long an accepted connection may dawdle before its
// hello frame; anything slower is not a fabric worker.
const helloTimeout = 10 * time.Second

// Cell lease states.
const (
	cellPending = iota // unleased, waiting for a worker
	cellLeased         // leased to a live worker
	cellDone           // resolved (result delivered, restored, or ERR-marked)
)

// workUnit is one leasable unit of work: its stable key, plus (for kinds
// whose work is not fully derivable from the key) the spec shipped in
// lease frames.
type workUnit struct {
	key  string
	spec *expt.JobSpec
}

// keyedVal pairs a decoded result value with its unit key.
type keyedVal struct {
	key string
	val any
}

// workload abstracts what a coordinator leases — Table II sweep cells or
// fault-campaign cells — so one lease core provides the TTL/heartbeat/
// takeover/bounded-retry/deterministic-merge guarantees to every kind.
// Values flowing through the core are the workload's own decoded result
// type (expt.Cell, faultinj.Result); the core never inspects them except
// through these hooks.
type workload struct {
	// kind is the hello-frame work kind; a worker of a different kind is
	// refused at hello, exactly like a fingerprint mismatch.
	kind string
	// fp is the membership fingerprint workers must present.
	fp string
	// units is the deterministic unit list; the merged output follows it.
	units []workUnit
	// reg receives the fabric counters (never nil; obs is nil-safe but the
	// constructors pass a registry for the snapshot paths).
	reg *obs.Registry
	// interrupt, when non-nil, winds the run down when closed.
	interrupt <-chan struct{}

	// lookup consults the run journal for an already-completed unit.
	lookup func(key string) (any, bool)
	// decode validates and decodes one result payload off the wire.
	decode func(key string, payload []byte) (any, error)
	// transient reports whether a delivered result is a worker-side
	// transient (requeued under the retry bound) rather than a
	// deterministic outcome.
	transient func(val any) bool
	// errLabel names a result's error kind for operator logs ("" if ok).
	errLabel func(val any) string
	// journalable mirrors the engine's journaling rule: only outcomes a
	// rerun reproduces identically are durable.
	journalable func(val any) bool
	// journal records a journalable result durably; nil when the run has no
	// journal.
	journal func(key string, val any)
	// persist appends a delivered result to a worker's segment file.
	persist func(seg *expt.Segment, key string, val any) error
	// loadSeg re-reads one segment file at merge (fingerprint closed over).
	loadSeg func(path string) ([]keyedVal, error)
	// lost builds the terminal value for a unit whose cross-worker retry
	// budget is spent; interrupted the terminal value for a wind-down.
	lost        func(u workUnit, tries int, holder, why string) any
	interrupted func(u workUnit, tries int) any
	// resolve, when non-nil, streams every resolution (delivered, restored,
	// lost, interrupted) in completion order — CampaignConfig.OnCell.
	resolve func(key string, val any)
}

// coreConfig is the kind-independent slice of a coordinator configuration.
type coreConfig struct {
	addr     string
	leaseTTL time.Duration
	maxTries int
	segDir   string
	log      func(format string, args ...any)
}

// cellSlot is the coordinator's state for one unit.
type cellSlot struct {
	unit  workUnit
	state int
	// tries counts lease grants; at maxTries the next reclaim ERR-marks
	// the cell instead of requeueing it.
	tries    int
	leaseID  uint64
	worker   string
	deadline time.Time
	// progress is the latest heartbeat-shipped snapshot (and its worker-side
	// generation); a re-lease ships it so the takeover resumes mid-cell.
	progress    []byte
	progressGen uint64
	instret     uint64
	val         any
}

// workerConn is one connected worker.
type workerConn struct {
	id   string
	conn net.Conn
	// wmu serializes frame writes (lease grants race with shutdown).
	wmu sync.Mutex
	// cur is the index of the cell currently leased to this worker, -1 when
	// idle. A TTL-expired worker keeps its stale cur until it reports in
	// again: a worker that stopped heartbeating gets no further leases.
	cur  int
	gone bool
}

// coordCore runs one fabric job of any kind: it owns the deterministic
// unit list, leases units to joined workers, reclaims and re-leases on
// missed heartbeats or dead connections, and merges the per-worker result
// segments into the final value slice.
type coordCore struct {
	cc coreConfig
	wl *workload
	ln net.Listener

	mu      sync.Mutex
	slots   []cellSlot
	keyIdx  map[string]int
	open    int // units not yet done
	seq     uint64
	workers map[string]*workerConn
	seen    map[string]bool // worker ids that ever joined
	segs    map[string]*expt.Segment
	segPath map[string]string
	done    chan struct{}
	closed  bool

	segDir string
}

// SegmentError wraps a per-worker segment failure during merge, naming the
// worker whose file refused it; it unwraps to the underlying typed error
// (*expt.CorruptJournalError with the damage offset, or
// *expt.FingerprintMismatchError).
type SegmentError struct {
	Worker string
	Path   string
	Err    error
}

func (e *SegmentError) Error() string {
	return fmt.Sprintf("fabric: merge refused: worker %s segment %s: %v", e.Worker, e.Path, e.Err)
}

func (e *SegmentError) Unwrap() error { return e.Err }

// Coordinator runs one fabric sweep (see coordCore for the machinery; the
// campaign analogue is CampaignCoordinator).
type Coordinator struct {
	core *coordCore
	cfg  Config
}

// NewCoordinator starts the coordinator (listener and lease scanner) and
// returns immediately, so callers can learn the listen address before
// joining workers; Wait blocks for the merged result.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	sw := cfg.Sweep
	fp := Fingerprint(sw)
	wl := &workload{
		kind:      "sweep",
		fp:        fp,
		reg:       sw.Obs,
		interrupt: sw.Interrupt,
		decode: func(key string, payload []byte) (any, error) {
			k, cell, err := expt.DecodeCellWire(payload)
			if err != nil {
				return nil, err
			}
			if k != key {
				return nil, fmt.Errorf("result payload keyed %q under lease %q", k, key)
			}
			return cell, nil
		},
		transient: func(v any) bool {
			c := v.(expt.Cell)
			return c.Err != nil && transientKind(c.Err.Kind)
		},
		errLabel: func(v any) string {
			c := v.(expt.Cell)
			if c.Err == nil {
				return ""
			}
			return c.Err.Kind.String()
		},
		journalable: func(v any) bool { return deterministicOutcome(v.(expt.Cell)) },
		persist: func(seg *expt.Segment, key string, v any) error {
			return seg.Append(key, v.(expt.Cell))
		},
		loadSeg: func(path string) ([]keyedVal, error) {
			kcs, err := expt.LoadSegment(path, fp)
			if err != nil {
				return nil, err
			}
			out := make([]keyedVal, len(kcs))
			for i, kc := range kcs {
				out[i] = keyedVal{key: kc.Key, val: kc.Cell}
			}
			return out, nil
		},
		lost: func(u workUnit, tries int, holder, why string) any {
			return expt.Cell{ISA: u.spec.ISA, Buildset: u.spec.Buildset,
				Backend: backendTag(u.spec.Backend), Attempts: tries,
				Err: &expt.CellError{ISA: u.spec.ISA, Buildset: u.spec.Buildset,
					Kind: expt.CellLost, Attempts: tries,
					Err: fmt.Errorf("lease lost on %d worker(s), last on %s: %s", tries, holder, why)}}
		},
		interrupted: func(u workUnit, tries int) any {
			return expt.Cell{ISA: u.spec.ISA, Buildset: u.spec.Buildset,
				Backend: backendTag(u.spec.Backend),
				Err: &expt.CellError{ISA: u.spec.ISA, Buildset: u.spec.Buildset,
					Kind: expt.CellInterrupted, Err: errSweepInterrupted,
					Attempts: tries}}
		},
	}
	specs := expt.TableIIJobSpecs(sw)
	wl.units = make([]workUnit, len(specs))
	for i := range specs {
		sp := specs[i]
		wl.units[i] = workUnit{key: sp.Key(), spec: &sp}
	}
	if sw.Journal != nil {
		j := sw.Journal
		wl.lookup = func(key string) (any, bool) {
			cell, ok := j.Lookup(key)
			if !ok {
				return nil, false
			}
			return cell, true
		}
		wl.journal = func(key string, v any) { _ = j.Record(key, v.(expt.Cell)) }
	}
	core, err := newCore(coreConfig{
		addr: cfg.Addr, leaseTTL: cfg.LeaseTTL, maxTries: cfg.MaxCellTries,
		segDir: cfg.SegmentDir, log: cfg.Log,
	}, wl)
	if err != nil {
		return nil, err
	}
	return &Coordinator{core: core, cfg: cfg}, nil
}

// errSweepInterrupted matches the single-host engine's wind-down error text.
var errSweepInterrupted = fmt.Errorf("sweep interrupted")

// Addr returns the coordinator's bound listen address.
func (c *Coordinator) Addr() string { return c.core.addr() }

// Wait blocks until the sweep resolves (or is interrupted), shuts the fleet
// down, and merges the per-worker segments into the final cell slice, in
// deterministic TableIIJobSpecs order — byte-identical (in every
// deterministic field) to a single-host sweep of the same configuration,
// for any worker count, placement, or mid-sweep worker death.
func (c *Coordinator) Wait() ([]expt.Cell, error) {
	vals, err := c.core.wait()
	if err != nil {
		return nil, err
	}
	cells := make([]expt.Cell, len(vals))
	for i, v := range vals {
		cells[i] = v.(expt.Cell)
	}
	// One aggregation pass over the merged cells, exactly like the
	// single-host engine's post-sweep recordCells: the non-fabric counter
	// totals match a local run of the same sweep.
	expt.RecordCells(c.core.wl.reg, cells)
	return cells, nil
}

// Snapshot exports the fleet and lease state for the run manifest.
func (c *Coordinator) Snapshot() *obs.FabricSnapshot { return c.core.snapshot() }

// newCore builds and starts the kind-independent lease core.
func newCore(cc coreConfig, wl *workload) (*coordCore, error) {
	if cc.leaseTTL <= 0 {
		cc.leaseTTL = DefaultLeaseTTL
	}
	if cc.maxTries <= 0 {
		cc.maxTries = DefaultMaxCellTries
	}
	c := &coordCore{
		cc:      cc,
		wl:      wl,
		keyIdx:  map[string]int{},
		workers: map[string]*workerConn{},
		seen:    map[string]bool{},
		segs:    map[string]*expt.Segment{},
		segPath: map[string]string{},
		done:    make(chan struct{}),
	}
	c.slots = make([]cellSlot, len(wl.units))
	for i, u := range wl.units {
		c.slots[i] = cellSlot{unit: u, state: cellPending}
		c.keyIdx[u.key] = i
		c.open++
	}
	// Resume: units the journal already holds are resolved up front, never
	// leased — the same reload-don't-recompute semantics as runCells.
	if wl.lookup != nil {
		for i := range c.slots {
			if v, ok := wl.lookup(c.slots[i].unit.key); ok {
				c.slots[i].state = cellDone
				c.slots[i].val = v
				c.open--
				// Restored cells fire the resolve stream like computed ones: a
				// streaming consumer of a resumed run sees every cell land.
				if wl.resolve != nil {
					wl.resolve(c.slots[i].unit.key, v)
				}
			}
		}
	}
	c.segDir = cc.segDir
	if c.segDir == "" {
		d, err := os.MkdirTemp("", "ssbench-fabric-")
		if err != nil {
			return nil, err
		}
		c.segDir = d
	}
	ln, err := net.Listen("tcp", cc.addr)
	if err != nil {
		return nil, err
	}
	c.ln = ln
	if c.open == 0 {
		close(c.done)
	}
	go c.acceptLoop()
	go c.scanLeases()
	return c, nil
}

// addr returns the core's bound listen address.
func (c *coordCore) addr() string { return c.ln.Addr().String() }

func (c *coordCore) logf(format string, args ...any) {
	if c.cc.log != nil {
		c.cc.log(format, args...)
	}
}

// wait blocks until the run resolves (or is interrupted), shuts the fleet
// down, and merges the per-worker segments into the unit-ordered values.
func (c *coordCore) wait() ([]any, error) {
	select {
	case <-c.done:
	case <-interruptCh(c.wl.interrupt):
		c.interruptAll()
		<-c.done
	}
	c.shutdown()
	return c.merge()
}

// interruptCh adapts a possibly-nil interrupt channel for select (a nil
// channel blocks forever, which is exactly right).
func interruptCh(ch <-chan struct{}) <-chan struct{} { return ch }

// interruptAll resolves every unfinished unit as interrupted, mirroring the
// single-host engine's wind-down: not journaled, recomputed on resume.
func (c *coordCore) interruptAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.slots {
		s := &c.slots[i]
		if s.state == cellDone {
			continue
		}
		s.val = c.wl.interrupted(s.unit, s.tries)
		c.resolveLocked(i)
	}
}

// acceptLoop admits workers until the listener closes.
func (c *coordCore) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handleConn(conn)
	}
}

// handleConn runs one worker connection: membership guard, registration,
// then the beat/result read loop. Any read error (including the peer dying)
// immediately reclaims the worker's lease.
func (c *coordCore) handleConn(conn net.Conn) {
	f, err := readFrameTimeout(conn, helloTimeout)
	if err != nil || f.Type != frameHello {
		conn.Close()
		return
	}
	refuse := func(reason string) {
		_ = writeFrame(conn, &frame{Type: frameRefuse, Reason: reason})
		conn.Close()
	}
	kind := f.Kind
	if kind == "" {
		kind = "sweep" // pre-campaign workers never sent a kind
	}
	switch {
	case f.Proto != ProtoVersion:
		refuse(fmt.Sprintf("protocol version %d, coordinator speaks %d", f.Proto, ProtoVersion))
		return
	case f.Worker == "":
		refuse("empty worker id")
		return
	case kind != c.wl.kind:
		c.wl.reg.Counter("fabric.worker.refused_kind").Inc()
		c.logf("fabric: refused worker %s: speaks %q work, this run leases %q", f.Worker, kind, c.wl.kind)
		refuse(fmt.Sprintf("worker runs %q work, this coordinator leases %q cells", kind, c.wl.kind))
		return
	case f.Fingerprint != c.wl.fp:
		// The membership guard: a worker started with different flags
		// (or left over from an old run) would compute different cells.
		c.wl.reg.Counter("fabric.worker.refused_stale").Inc()
		c.logf("fabric: refused stale worker %s (fingerprint %.12s…, run is %.12s…)",
			f.Worker, f.Fingerprint, c.wl.fp)
		refuse(fmt.Sprintf("config fingerprint %.12s… does not match this run's %.12s…; stale worker?",
			f.Fingerprint, c.wl.fp))
		return
	}

	w := &workerConn{id: f.Worker, conn: conn, cur: -1}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		refuse("run already complete")
		return
	}
	if old := c.workers[w.id]; old != nil && !old.gone {
		// A reconnect raced ahead of the dead connection's read error: the
		// new connection supersedes; closing the old one unblocks its
		// handler, which reclaims any lease it held.
		old.gone = true
		old.conn.Close()
		if old.cur >= 0 {
			c.reclaimLocked(old.cur, "superseded connection")
		}
	}
	rejoin := c.seen[w.id]
	c.seen[w.id] = true
	c.workers[w.id] = w
	if c.segs[w.id] == nil {
		path := filepath.Join(c.segDir, "worker-"+sanitize(w.id)+".sseg")
		seg, err := expt.CreateSegment(path, w.id, c.wl.fp)
		if err != nil {
			c.mu.Unlock()
			refuse("coordinator cannot persist results: " + err.Error())
			return
		}
		c.segs[w.id] = seg
		c.segPath[w.id] = path
	}
	c.mu.Unlock()

	if rejoin {
		c.wl.reg.Counter("fabric.worker.rejoined").Inc()
	} else {
		c.wl.reg.Counter("fabric.worker.joined").Inc()
	}
	c.logf("fabric: worker %s joined", w.id)
	if err := c.send(w, &frame{Type: frameWelcome, RunID: fmt.Sprintf("fabric-%d", os.Getpid())}); err != nil {
		c.dropWorker(w)
		return
	}
	c.assign(w)

	for {
		f, err := readFrame(conn)
		if err != nil {
			c.dropWorker(w)
			return
		}
		switch f.Type {
		case frameBeat:
			c.handleBeat(w, f)
		case frameResult:
			c.handleResult(w, f)
		default:
			// Unknown frame types are ignored, not fatal: a newer worker may
			// speak extensions this coordinator predates.
		}
	}
}

// send writes one frame to a worker, serialized per connection.
func (c *coordCore) send(w *workerConn, f *frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, f)
}

// dropWorker handles a dead connection: the lease (if any) is reclaimed
// immediately — a dead TCP peer needs no TTL grace.
func (c *coordCore) dropWorker(w *workerConn) {
	c.mu.Lock()
	if !w.gone {
		w.gone = true
		if c.workers[w.id] == w {
			delete(c.workers, w.id)
		}
		if w.cur >= 0 {
			c.reclaimLocked(w.cur, "worker connection lost")
			w.cur = -1
		}
		c.wl.reg.Counter("fabric.worker.disconnected").Inc()
		c.logf("fabric: worker %s disconnected", w.id)
	}
	c.mu.Unlock()
	w.conn.Close()
	c.assignPending()
}

// handleBeat refreshes the lease deadline and absorbs any newer progress
// snapshot the worker shipped.
func (c *coordCore) handleBeat(w *workerConn, f *frame) {
	c.wl.reg.Counter("fabric.heartbeats").Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.cur < 0 {
		return
	}
	s := &c.slots[w.cur]
	if s.state != cellLeased || s.leaseID != f.LeaseID {
		return // beat for a reclaimed lease
	}
	s.deadline = time.Now().Add(c.cc.leaseTTL)
	s.instret = f.Instret
	if f.Gen > s.progressGen && len(f.Progress) > 0 {
		s.progressGen = f.Gen
		s.progress = f.Progress
	}
}

// handleResult resolves a delivered cell: persist to the worker's segment,
// journal deterministic outcomes, requeue transient worker-side failures
// (up to the try bound), then hand the worker its next lease.
func (c *coordCore) handleResult(w *workerConn, f *frame) {
	val, err := c.wl.decode(f.Key, f.Cell)
	if err != nil {
		// A worker sending undecodable results is broken; dropping the
		// connection reclaims its lease and lets the cell retry elsewhere.
		c.logf("fabric: worker %s sent a malformed result: %v", w.id, err)
		w.conn.Close()
		return
	}
	key := f.Key
	c.mu.Lock()
	idx, ok := c.keyIdx[key]
	if !ok || w.cur != idx {
		c.mu.Unlock()
		c.wl.reg.Counter("fabric.result.stale").Inc()
		return
	}
	s := &c.slots[idx]
	if s.state != cellLeased || s.leaseID != f.LeaseID {
		// The lease was reclaimed (and possibly re-granted elsewhere) while
		// this worker was still computing: its late result is dropped; the
		// re-lease produces the identical deterministic fields.
		w.cur = -1
		c.mu.Unlock()
		c.wl.reg.Counter("fabric.result.stale").Inc()
		c.assign(w)
		return
	}
	if c.wl.transient(val) && s.tries < c.cc.maxTries {
		// A worker-side transient (panic, timeout, interrupt during worker
		// shutdown) gets the same cross-worker retry budget a dead worker
		// would: back to pending, some worker (maybe this one) re-runs it.
		s.state = cellPending
		s.worker, s.leaseID = "", 0
		w.cur = -1
		c.mu.Unlock()
		c.wl.reg.Counter("fabric.cell.requeued").Inc()
		c.logf("fabric: cell %s requeued after transient %s on worker %s", key, c.wl.errLabel(val), w.id)
		c.assign(w)
		c.assignPending()
		return
	}
	if f.Resumed {
		c.wl.reg.Counter("fabric.lease.progress_resumed").Inc()
		c.logf("fabric: cell %s resumed mid-kernel on worker %s", key, w.id)
	}
	s.val = val
	seg := c.segs[w.id]
	w.cur = -1
	c.resolveLocked(idx)
	c.mu.Unlock()

	// Persistence outside the lease lock: the segment has its own mutex.
	if seg != nil {
		if err := c.wl.persist(seg, key, val); err != nil {
			c.logf("fabric: segment append for worker %s: %v", w.id, err)
		}
	}
	if c.wl.journal != nil && c.wl.journalable(val) {
		c.wl.journal(key, val)
	}
	c.wl.reg.Counter("fabric.results").Inc()
	c.assign(w)
}

// transientKind reports whether a worker-reported cell error is worth
// retrying on another worker (deterministic failures reproduce anywhere).
func transientKind(k expt.CellErrorKind) bool {
	return k == expt.CellPanic || k == expt.CellTimeout ||
		k == expt.CellInterrupted || k == expt.CellLost
}

// deterministicOutcome mirrors the engine's journaling rule: only outcomes
// a rerun reproduces identically are durable.
func deterministicOutcome(c expt.Cell) bool {
	if c.Err == nil {
		return true
	}
	return c.Err.Kind == expt.CellFailed || c.Err.Kind == expt.CellBudget
}

// resolveLocked marks a slot done and completes the run when it was the
// last one. Caller holds c.mu. Every resolution path funnels through here
// — worker-delivered results, lost cells, interrupts — so this is also
// where the resolve stream fires (under c.mu, per the OnCell contract: the
// callback must be fast and must not call back in).
func (c *coordCore) resolveLocked(idx int) {
	s := &c.slots[idx]
	if s.state == cellDone {
		return
	}
	s.state = cellDone
	c.open--
	if c.wl.resolve != nil {
		c.wl.resolve(s.unit.key, s.val)
	}
	if c.open == 0 {
		close(c.done)
	}
}

// reclaimLocked takes a leased cell back: requeued for another worker with
// its progress snapshot intact, or ERR-marked once its try budget is spent.
// Caller holds c.mu.
func (c *coordCore) reclaimLocked(idx int, why string) {
	s := &c.slots[idx]
	if s.state != cellLeased {
		return
	}
	holder := s.worker
	s.worker, s.leaseID = "", 0
	if s.tries >= c.cc.maxTries {
		s.val = c.wl.lost(s.unit, s.tries, holder, why)
		c.resolveLocked(idx)
		c.wl.reg.Counter("fabric.cell.lost").Inc()
		c.logf("fabric: cell %s lost after %d tries (%s)", s.unit.key, s.tries, why)
		return
	}
	s.state = cellPending
	c.logf("fabric: reclaimed cell %s from worker %s (%s)", s.unit.key, holder, why)
}

func backendTag(b expt.Backend) string {
	if b == expt.BackendAOT {
		return "aot"
	}
	return ""
}

// scanLeases expires leases whose heartbeats stopped: the hung-but-connected
// worker case (a dead connection is reclaimed immediately by its handler).
func (c *coordCore) scanLeases() {
	period := c.cc.leaseTTL / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		now := time.Now()
		expired := false
		c.mu.Lock()
		for i := range c.slots {
			s := &c.slots[i]
			if s.state == cellLeased && now.After(s.deadline) {
				c.wl.reg.Counter("fabric.lease.expired").Inc()
				// The holder keeps its stale cur: a worker that stopped
				// heartbeating gets no further leases until it reports in.
				c.reclaimLocked(i, "lease TTL expired without a heartbeat")
				expired = true
			}
		}
		c.mu.Unlock()
		if expired {
			c.assignPending()
		}
	}
}

// assign grants the lowest-index pending cell to an idle worker.
func (c *coordCore) assign(w *workerConn) {
	c.mu.Lock()
	if w.gone || w.cur >= 0 {
		c.mu.Unlock()
		return
	}
	idx := -1
	for i := range c.slots {
		if c.slots[i].state == cellPending {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.mu.Unlock()
		return
	}
	s := &c.slots[idx]
	s.state = cellLeased
	s.tries++
	c.seq++
	s.leaseID = c.seq
	s.worker = w.id
	s.deadline = time.Now().Add(c.cc.leaseTTL)
	w.cur = idx
	tries := s.tries
	lease := &frame{Type: frameLease, LeaseID: s.leaseID, Key: s.unit.key,
		Spec: s.unit.spec, TTLMS: c.cc.leaseTTL.Milliseconds(), Progress: s.progress}
	c.mu.Unlock()

	c.wl.reg.Counter("fabric.lease.granted").Inc()
	if tries > 1 {
		c.wl.reg.Counter("fabric.lease.takeover").Inc()
		c.logf("fabric: cell %s re-leased to worker %s (takeover, try %d)", lease.Key, w.id, tries)
	}
	if err := c.send(w, lease); err != nil {
		c.dropWorker(w)
	}
}

// assignPending hands newly pending cells to any idle workers.
func (c *coordCore) assignPending() {
	c.mu.Lock()
	var idle []*workerConn
	for _, w := range c.workers {
		if !w.gone && w.cur < 0 {
			idle = append(idle, w)
		}
	}
	c.mu.Unlock()
	sort.Slice(idle, func(i, j int) bool { return idle[i].id < idle[j].id })
	for _, w := range idle {
		c.assign(w)
	}
}

// shutdown closes the listener, tells every worker to exit, and closes the
// segment files.
func (c *coordCore) shutdown() {
	c.mu.Lock()
	c.closed = true
	workers := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	segs := c.segs
	c.segs = map[string]*expt.Segment{}
	c.mu.Unlock()

	c.ln.Close()
	for _, w := range workers {
		_ = c.send(w, &frame{Type: frameShutdown})
		w.conn.Close()
	}
	for _, s := range segs {
		s.Close()
	}
}

// merge assembles the final unit-ordered values: worker-delivered results
// are re-read from their CRC-framed segments (end-to-end validation of what
// the output is built from), locally resolved units (journal-restored,
// lost, interrupted) come from the slot table. A corrupt segment refuses
// the whole merge, naming the worker and offset. Workers merge in sorted id
// order with first delivery winning, so the result is independent of map
// iteration.
func (c *coordCore) merge() ([]any, error) {
	c.mu.Lock()
	paths := make(map[string]string, len(c.segPath))
	for id, p := range c.segPath {
		paths[id] = p
	}
	slots := make([]cellSlot, len(c.slots))
	copy(slots, c.slots)
	c.mu.Unlock()

	ids := make([]string, 0, len(paths))
	for id := range paths {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fromSegs := map[string]any{}
	for _, id := range ids {
		kvs, err := c.wl.loadSeg(paths[id])
		if err != nil {
			return nil, &SegmentError{Worker: id, Path: paths[id], Err: err}
		}
		for _, kv := range kvs {
			if _, dup := fromSegs[kv.key]; !dup {
				fromSegs[kv.key] = kv.val
			}
		}
	}
	vals := make([]any, len(slots))
	for i := range slots {
		s := &slots[i]
		if v, ok := fromSegs[s.unit.key]; ok {
			vals[i] = v
			continue
		}
		if s.state != cellDone {
			return nil, fmt.Errorf("fabric: merge: cell %s unresolved", s.unit.key)
		}
		vals[i] = s.val
	}
	return vals, nil
}

// MergeSegments loads every per-worker sweep segment (worker id → path) and
// returns the union of their cells by key. Damage semantics match resume:
// a torn final record in a segment is dropped; mid-file corruption or a
// fingerprint mismatch refuses the merge with a *SegmentError naming the
// worker (unwrapping to the offset-bearing cause). Workers are merged in
// sorted id order and the first delivery of a key wins, so the result is
// independent of map iteration.
func MergeSegments(paths map[string]string, fingerprint string) (map[string]expt.Cell, error) {
	ids := make([]string, 0, len(paths))
	for id := range paths {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := map[string]expt.Cell{}
	for _, id := range ids {
		kcs, err := expt.LoadSegment(paths[id], fingerprint)
		if err != nil {
			return nil, &SegmentError{Worker: id, Path: paths[id], Err: err}
		}
		for _, kc := range kcs {
			if _, dup := out[kc.Key]; !dup {
				out[kc.Key] = kc.Cell
			}
		}
	}
	return out, nil
}

// snapshot exports the fleet and lease state for the run manifest. Taken
// after wait returns, every lease reads "done" (or the terminal state of a
// lost/interrupted cell) — the snapshot documents how the run resolved,
// not a mid-flight racing view.
func (c *coordCore) snapshot() *obs.FabricSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := &obs.FabricSnapshot{
		Fingerprint: c.wl.fp,
		LeaseTTLMS:  c.cc.leaseTTL.Milliseconds(),
		MaxTries:    c.cc.maxTries,
	}
	for id := range c.seen {
		fs.Workers = append(fs.Workers, id)
	}
	sort.Strings(fs.Workers)
	for i := range c.slots {
		s := &c.slots[i]
		state := "pending"
		switch s.state {
		case cellLeased:
			state = "leased"
		case cellDone:
			state = "done"
		}
		fs.Leases = append(fs.Leases, obs.LeaseOutcome{
			Key: s.unit.key, State: state, Tries: s.tries, Worker: s.worker,
		})
	}
	return fs
}

// sanitize maps a worker id to a safe file-name fragment.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, id)
}
