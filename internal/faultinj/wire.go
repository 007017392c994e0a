package faultinj

// Wire form for campaign cell results. Fabric workers ship finished cells
// to the coordinator, durable segments persist them across coordinator
// restarts, and the run journal records them per cell — all through this
// one codec, so a Result round-trips byte-identically into the report no
// matter which path carried it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// InterruptedError marks a cell that was wound down mid-campaign by a
// coordinator shutdown. It is transient: a resumed campaign re-runs the
// cell rather than reporting it failed.
type InterruptedError struct {
	Key string
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("faultinj: cell %s interrupted", e.Key)
}

// LostError marks a cell that exhausted its cross-worker retry budget on
// the fabric. It is deterministic from the coordinator's point of view:
// the merged report carries the loss instead of hanging the campaign.
type LostError struct {
	Key    string
	Tries  int
	Detail string
}

func (e *LostError) Error() string {
	return fmt.Sprintf("faultinj: cell %s lost after %d attempts: %s", e.Key, e.Tries, e.Detail)
}

// LostResult builds the terminal Result for a cell whose cross-worker
// retry budget is spent: the report carries the loss instead of hanging
// the campaign.
func LostResult(spec CellSpec, tries int, detail string) Result {
	return Result{ISA: spec.ISA, Kernel: spec.Kernel, Class: spec.Class,
		Buildset: spec.Class.buildset(),
		Err:      &LostError{Key: spec.Key(), Tries: tries, Detail: detail}}
}

// InterruptedResult builds the terminal Result for a cell wound down
// mid-campaign.
func InterruptedResult(spec CellSpec) Result {
	return Result{ISA: spec.ISA, Kernel: spec.Kernel, Class: spec.Class,
		Buildset: spec.Class.buildset(),
		Err:      &InterruptedError{Key: spec.Key()}}
}

// resultWire is the JSON shape of one encoded cell result. Field names are
// a compatibility contract: segments and journals written by one build
// must decode under the next.
type resultWire struct {
	Key          string          `json:"key"`
	Status       string          `json:"status"`
	ISA          string          `json:"isa"`
	Kernel       string          `json:"kernel"`
	Class        string          `json:"class"`
	Buildset     string          `json:"buildset"`
	Planned      int             `json:"planned"`
	Injected     int             `json:"injected"`
	Recovered    int             `json:"recovered"`
	Faults       int             `json:"faults"`
	RefInstret   uint64          `json:"ref_instret"`
	ChainFollows uint64          `json:"chain_follows,omitempty"`
	Divergence   *divergenceWire `json:"divergence,omitempty"`
	ErrMsg       string          `json:"err,omitempty"`
	LostTries    int             `json:"lost_tries,omitempty"`
	LostDetail   string          `json:"lost_detail,omitempty"`
}

type divergenceWire struct {
	Instret uint64 `json:"instret"`
	RefPC   uint64 `json:"ref_pc"`
	GotPC   uint64 `json:"got_pc"`
	Detail  string `json:"detail"`
}

// ResultStatus classifies a result for wire and journal purposes:
// "ok", "diverged", "error", "interrupted", or "lost".
func ResultStatus(r Result) string {
	var ie *InterruptedError
	var le *LostError
	switch {
	case errors.As(r.Err, &ie):
		return "interrupted"
	case errors.As(r.Err, &le):
		return "lost"
	case r.Err != nil:
		return "error"
	case r.Divergence != nil:
		return "diverged"
	}
	return "ok"
}

// EncodeResult serializes one cell result for segments, journals, and the
// fabric wire.
func EncodeResult(r Result) ([]byte, error) {
	w := resultWire{
		Key:          r.Key(),
		Status:       ResultStatus(r),
		ISA:          r.ISA,
		Kernel:       r.Kernel,
		Class:        r.Class.String(),
		Buildset:     r.Buildset,
		Planned:      r.Planned,
		Injected:     r.Injected,
		Recovered:    r.Recovered,
		Faults:       r.Faults,
		RefInstret:   r.RefInstret,
		ChainFollows: r.ChainFollows,
	}
	if r.Divergence != nil {
		w.Divergence = &divergenceWire{
			Instret: r.Divergence.Instret,
			RefPC:   r.Divergence.RefPC,
			GotPC:   r.Divergence.GotPC,
			Detail:  r.Divergence.Detail,
		}
	}
	if r.Err != nil {
		w.ErrMsg = r.Err.Error()
		var le *LostError
		if errors.As(r.Err, &le) {
			w.LostTries = le.Tries
			w.LostDetail = le.Detail
		}
	}
	return json.Marshal(w)
}

// DecodeResult inverts EncodeResult. Typed interrupted/lost errors are
// reconstructed so retry classification survives the round trip, and
// plain error text is preserved verbatim so the rendered report stays
// byte-identical to a single-host run.
func DecodeResult(data []byte) (Result, error) {
	var w resultWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return Result{}, fmt.Errorf("faultinj: decode result: %w", err)
	}
	cl, ok := classByName(w.Class)
	if !ok {
		return Result{}, fmt.Errorf("faultinj: result names unknown class %q", w.Class)
	}
	r := Result{
		ISA:          w.ISA,
		Kernel:       w.Kernel,
		Class:        cl,
		Buildset:     w.Buildset,
		Planned:      w.Planned,
		Injected:     w.Injected,
		Recovered:    w.Recovered,
		Faults:       w.Faults,
		RefInstret:   w.RefInstret,
		ChainFollows: w.ChainFollows,
	}
	if r.Key() != w.Key {
		return Result{}, fmt.Errorf("faultinj: result key %q disagrees with fields (%q)", w.Key, r.Key())
	}
	if w.Divergence != nil {
		r.Divergence = &Divergence{
			Instret: w.Divergence.Instret,
			RefPC:   w.Divergence.RefPC,
			GotPC:   w.Divergence.GotPC,
			Detail:  w.Divergence.Detail,
		}
	}
	switch w.Status {
	case "ok", "diverged":
	case "interrupted":
		r.Err = &InterruptedError{Key: w.Key}
	case "lost":
		r.Err = &LostError{Key: w.Key, Tries: w.LostTries, Detail: w.LostDetail}
	case "error":
		if w.ErrMsg == "" {
			return Result{}, fmt.Errorf("faultinj: errored result %q carries no error text", w.Key)
		}
		r.Err = errors.New(w.ErrMsg)
	default:
		return Result{}, fmt.Errorf("faultinj: result status %q not recognised", w.Status)
	}
	return r, nil
}

// Fingerprint hashes the campaign parameters that determine cell identity
// and outcome. Two parties sharing a fingerprint are guaranteed to agree
// on the cell list, every cell's fault schedule, and the merged report.
// Host-local knobs (Workers, Obs) are deliberately excluded — the report
// is byte-identical across them.
func Fingerprint(cfg Config) string {
	cfg = cfg.withDefaults()
	classes := make([]string, len(cfg.Classes))
	for i, c := range cfg.Classes {
		classes[i] = c.String()
	}
	h := sha256.New()
	fmt.Fprintf(h, "faultinj/campaign\nseed=%d\nevents=%d\nmax_instr=%d\nclasses=%s\nisas=%s\nkernels=%s\n",
		cfg.Seed, cfg.Events, cfg.MaxInstr,
		strings.Join(classes, ","), strings.Join(cfg.ISAs, ","), strings.Join(cfg.Kernels, ","))
	return fmt.Sprintf("%x", h.Sum(nil))
}
