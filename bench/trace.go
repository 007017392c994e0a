package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Spans nest: a set-up holds its steps; a
// round holds cells; a cell holds runs; a run holds one folded span per
// layer. Times are ns since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    int    `json:"run"`    // the run the span belongs to; 0 outside runs
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls and Busy describe a folded span: the per-call timings of one
	// layer within one run, kept as a count and a sum to bound memory.
	// Start and End are then its first call's start and last call's end.
	Calls uint64 `json:"calls,omitempty"`
	Busy  int64  `json:"busy_ns,omitempty"`
	// Self is the span's own time: its duration (a folded span's busy time)
	// minus what its children cover.
	Self int64 `json:"self_ns"`
}

// covered is the time a span accounts for inside its parent.
func (s *span) covered() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	runs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	run := 0
	if n := len(t.open); n > 0 {
		run = t.spans[t.open[n-1]].Run
	}
	return t.push(name, run)
}

// beginRun opens the span of one run under a fresh run id.
func (t *tracer) beginRun() int {
	if t == nil {
		return -1
	}
	t.runs++
	return t.push("run", t.runs)
}

func (t *tracer) push(name string, run int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id and any span opened inside it.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		if top == id {
			break
		}
	}
}

// fold records one layer's calls within span parent as a single span and
// returns its id; a layer that was never called leaves no span.
func (t *tracer) fold(parent int, name string, f fold) int {
	if t == nil || parent < 0 || f.calls == 0 {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.spans[parent].Run, Name: name,
		Start: f.first, End: f.last, Calls: f.calls, Busy: f.busy})
	return id
}

// write computes self times and writes every span to path as JSON.
func (t *tracer) write(path string) error {
	cover := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			cover[p] += t.spans[i].covered()
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].covered() - cover[i]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fold accumulates the per-call timings of one layer within one run.
type fold struct {
	calls       uint64
	busy        int64
	first, last int64
}

// add accounts calls that ran from t0 to t1 and returns t1, so a loop can
// chain one clock reading into the next layer's start.
func (f *fold) add(t0, t1 int64, calls uint64) int64 {
	if f.calls == 0 {
		f.first = t0
	}
	f.calls += calls
	f.busy += t1 - t0
	f.last = t1
	return t1
}
