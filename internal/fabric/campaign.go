package fabric

// Fault campaigns on the fabric: campaign cells are leased with the same
// TTL/heartbeat/takeover/bounded-retry/deterministic-merge guarantees as
// Table II sweep cells. A campaign lease is key-addressed (the CellSpec is
// fully derivable from "ISA/class/kernel"), its progress snapshot is the
// clean pass's retirement count, and delivered results ride the
// faultinj wire codec into per-worker raw segments. The merged Report is
// byte-identical to a single-host faultinj.Run of the same Config, for any
// worker count, placement, or mid-cell worker death.

import (
	"fmt"
	"time"

	"singlespec/internal/expt"
	"singlespec/internal/faultinj"
	"singlespec/internal/obs"
)

// CampaignConfig configures a fabric coordinator for a fault campaign.
type CampaignConfig struct {
	// Addr is the TCP listen address (":0" to let the kernel pick).
	Addr string
	// Campaign is the campaign configuration: it determines the cell list
	// and the membership fingerprint. Campaign.Workers is ignored — the
	// fabric's parallelism is its worker fleet. Campaign.Obs receives the
	// fabric counters and (at merge) the campaign's per-class counters.
	Campaign faultinj.Config
	// LeaseTTL, MaxCellTries, SegmentDir, Log: as Config.
	LeaseTTL     time.Duration
	MaxCellTries int
	SegmentDir   string
	Log          func(format string, args ...any)
	// Journal, when non-nil, makes the campaign durable: deterministic cell
	// outcomes (ok, diverged, error) are recorded as raw records, and
	// already-journaled cells are restored up front instead of re-leased.
	Journal *expt.RunJournal
	// Interrupt, when non-nil, winds the campaign down when closed:
	// unfinished cells resolve as interrupted (not journaled — a resumed
	// campaign recomputes them).
	Interrupt <-chan struct{}
	// OnCell, when non-nil, streams every cell resolution in completion
	// order (restored cells included). Fast, no calling back in.
	OnCell func(key string, res faultinj.Result)
}

// CampaignCoordinator runs one distributed fault campaign.
type CampaignCoordinator struct {
	core *coordCore
	cfg  CampaignConfig
}

// NewCampaignCoordinator starts a campaign coordinator (listener and lease
// scanner) and returns immediately; Wait blocks for the merged report.
func NewCampaignCoordinator(cfg CampaignConfig) (*CampaignCoordinator, error) {
	fp := faultinj.Fingerprint(cfg.Campaign)
	wl := &workload{
		kind:      "campaign",
		fp:        fp,
		reg:       cfg.Campaign.Obs,
		interrupt: cfg.Interrupt,
		decode: func(key string, payload []byte) (any, error) {
			res, err := faultinj.DecodeResult(payload)
			if err != nil {
				return nil, err
			}
			if res.Key() != key {
				return nil, fmt.Errorf("result payload keyed %q under lease %q", res.Key(), key)
			}
			return res, nil
		},
		// Deterministic outcomes (ok, diverged, error) reproduce anywhere;
		// only a wind-down interrupt is worth re-leasing.
		transient:   func(v any) bool { return faultinj.ResultStatus(v.(faultinj.Result)) == "interrupted" },
		errLabel:    func(v any) string { return faultinj.ResultStatus(v.(faultinj.Result)) },
		journalable: func(v any) bool { return campaignJournalable(v.(faultinj.Result)) },
		persist: func(seg *expt.Segment, key string, v any) error {
			payload, err := faultinj.EncodeResult(v.(faultinj.Result))
			if err != nil {
				return err
			}
			return seg.AppendRaw(key, payload)
		},
		loadSeg: func(path string) ([]keyedVal, error) {
			krs, err := expt.LoadSegmentRaw(path, fp)
			if err != nil {
				return nil, err
			}
			out := make([]keyedVal, len(krs))
			for i, kr := range krs {
				res, err := faultinj.DecodeResult(kr.Raw)
				if err != nil {
					return nil, err
				}
				out[i] = keyedVal{key: kr.Key, val: res}
			}
			return out, nil
		},
		lost: func(u workUnit, tries int, holder, why string) any {
			spec, _ := faultinj.ParseCellKey(u.key)
			return faultinj.LostResult(spec, tries,
				fmt.Sprintf("lease lost on %d worker(s), last on %s: %s", tries, holder, why))
		},
		interrupted: func(u workUnit, tries int) any {
			spec, _ := faultinj.ParseCellKey(u.key)
			return faultinj.InterruptedResult(spec)
		},
	}
	specs := faultinj.CampaignCells(cfg.Campaign)
	wl.units = make([]workUnit, len(specs))
	for i, s := range specs {
		wl.units[i] = workUnit{key: s.Key()} // no spec payload: the key is the spec
	}
	if cfg.Journal != nil {
		j := cfg.Journal
		wl.lookup = func(key string) (any, bool) {
			raw, ok := j.LookupRaw(key)
			if !ok {
				return nil, false
			}
			res, err := faultinj.DecodeResult(raw)
			if err != nil {
				return nil, false
			}
			return res, true
		}
		wl.journal = func(key string, v any) {
			payload, err := faultinj.EncodeResult(v.(faultinj.Result))
			if err != nil {
				return
			}
			_ = j.RecordRaw(key, payload)
		}
	}
	if fn := cfg.OnCell; fn != nil {
		wl.resolve = func(key string, v any) { fn(key, v.(faultinj.Result)) }
	}
	core, err := newCore(coreConfig{
		addr: cfg.Addr, leaseTTL: cfg.LeaseTTL, maxTries: cfg.MaxCellTries,
		segDir: cfg.SegmentDir, log: cfg.Log,
	}, wl)
	if err != nil {
		return nil, err
	}
	return &CampaignCoordinator{core: core, cfg: cfg}, nil
}

// campaignJournalable mirrors the sweep rule: only outcomes a rerun
// reproduces identically are durable. Interrupted and lost cells are
// re-run by a resumed campaign.
func campaignJournalable(r faultinj.Result) bool {
	switch faultinj.ResultStatus(r) {
	case "ok", "diverged", "error":
		return true
	}
	return false
}

// Addr returns the coordinator's bound listen address.
func (c *CampaignCoordinator) Addr() string { return c.core.addr() }

// Wait blocks until the campaign resolves (or is interrupted), shuts the
// fleet down, and merges the per-worker segments into the final report —
// byte-identical to faultinj.Run of the same Config.
func (c *CampaignCoordinator) Wait() (*faultinj.Report, error) {
	vals, err := c.core.wait()
	if err != nil {
		return nil, err
	}
	results := make([]faultinj.Result, len(vals))
	for i, v := range vals {
		results[i] = v.(faultinj.Result)
	}
	rep := &faultinj.Report{Seed: c.cfg.Campaign.Seed, Results: results}
	// Same counter semantics as faultinj.Run: one merge-time pass, so the
	// per-class totals match a local run of the same campaign.
	rep.Record(c.cfg.Campaign.Obs)
	return rep, nil
}

// Snapshot exports the fleet and lease state for the run manifest.
func (c *CampaignCoordinator) Snapshot() *obs.FabricSnapshot { return c.core.snapshot() }

// CampaignWorkerConfig configures a fabric campaign worker.
type CampaignWorkerConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// ID names this worker; empty derives one from the hostname and pid.
	ID string
	// Campaign is the worker's local campaign configuration; its
	// fingerprint must match the coordinator's or the worker is refused at
	// hello. Obs receives worker-local counters.
	Campaign faultinj.Config
	// ReconnectBase and MaxReconnects: as WorkerConfig.
	ReconnectBase time.Duration
	MaxReconnects int
	// Log, when non-nil, receives one-line progress events.
	Log func(format string, args ...any)

	// Test hooks, as WorkerConfig.
	testOnProgress     func(key string, gen uint64)
	testKill           <-chan struct{}
	testNoBeat         bool
	testBeatOnProgress bool
}

// RunCampaignWorker joins the fabric at cfg.Addr and serves campaign-cell
// leases until the coordinator sends shutdown (nil), refuses the worker
// (*RefusedError), or the reconnect budget is spent — the same lifecycle
// as RunWorker.
func RunCampaignWorker(cfg CampaignWorkerConfig) error {
	campaign := cfg.Campaign
	core := &workerCore{
		addr: cfg.Addr, id: cfg.ID,
		kind: "campaign", fp: faultinj.Fingerprint(campaign),
		reg:           campaign.Obs,
		reconnectBase: cfg.ReconnectBase, maxReconnects: cfg.MaxReconnects,
		retrySeed: campaign.Seed, log: cfg.Log,
		testOnProgress: cfg.testOnProgress, testKill: cfg.testKill,
		testNoBeat: cfg.testNoBeat, testBeatOnProgress: cfg.testBeatOnProgress,
	}
	core.measure = func(key string, spec *expt.JobSpec, resume []byte, sink func([]byte, uint64)) ([]byte, bool, error) {
		cs, err := faultinj.ParseCellKey(key)
		if err != nil {
			return nil, false, perr("campaign lease %s: %v", key, err)
		}
		res, resumed := faultinj.MeasureCampaignCell(cs, campaign, resume, sink, campaign.Obs)
		payload, err := faultinj.EncodeResult(res)
		if err != nil {
			return nil, false, fmt.Errorf("fabric: encoding campaign result for %s: %w", key, err)
		}
		return payload, resumed, nil
	}
	return core.run()
}
