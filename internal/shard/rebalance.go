package shard

import (
	"fmt"
	"strings"

	"hcf/internal/journal"
	"hcf/internal/memsim"
	"hcf/internal/route"
)

// RebalanceConfig tunes the hot-shard feedback loop. Zero values select
// the defaults.
type RebalanceConfig struct {
	// SplitRatio: split the hottest shard when its share of the
	// window's operations exceeds SplitRatio × its fair (slot-weighted)
	// share. Default 2.0.
	SplitRatio float64
	// MinShare: additionally require the hottest shard to carry at
	// least this absolute fraction of the window's operations before
	// splitting it. SplitRatio alone measures *imbalance*, and fair
	// share shrinks as shards activate — without a floor a healthy
	// topology with, say, 7 active shards would keep splitting any
	// shard above 2/7 of traffic, paying a lock-the-world migration to
	// fix a distribution that was never a bottleneck. Default 0.5 (only
	// a shard carrying the majority of all traffic is split); set very
	// small (not zero) to split on pure imbalance.
	MinShare float64
	// MergeRatio: merge the coldest split-created shard back into its
	// hottest peer when BOTH see less than MergeRatio × fair share.
	// Default 0 (merging disabled) — healing only ever adds capacity
	// unless the operator opts into shrinking.
	MergeRatio float64
	// MinOps: ignore windows with fewer total completed operations
	// (cold or warming up). Default 2000.
	MinOps uint64
	// Cooldown: windows to wait after a split/merge before acting
	// again, letting re-routed traffic settle. Default 2.
	Cooldown int
}

func (c *RebalanceConfig) normalize() {
	if c.SplitRatio == 0 {
		c.SplitRatio = 2.0
	}
	if c.MinShare == 0 {
		c.MinShare = 0.5
	}
	if c.MinOps == 0 {
		c.MinOps = 2000
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2
	}
}

// RebalanceDecision is one journal entry: what the rebalancer did (or
// declined to do) in one sampling window, with the evidence it acted
// on. Entries are deterministic per (seed, config): the sampler runs at
// fixed simulated times over deterministic per-shard counters.
type RebalanceDecision struct {
	// Window is the sampling-window ordinal (1-based).
	Window int `json:"window"`
	// Now is the simulated time at the decision.
	Now int64 `json:"now"`
	// Action is "split", "merge" or "hold".
	Action string `json:"action"`
	// Reason is a short machine-stable explanation ("hot-shard",
	// "below-min-ops", "cooldown", "no-spare", "balanced", ...).
	Reason string `json:"reason"`
	// From and To are the shards acted on (-1 when Action is "hold").
	From int `json:"from"`
	To   int `json:"to"`
	// Epoch is the ring epoch after the action (before, for "hold").
	Epoch uint64 `json:"epoch"`
	// MovedKeys is the number of keys migrated by the action.
	MovedKeys int `json:"moved_keys"`
	// Evidence: the window's per-shard operation counts, the hottest
	// shard's observed and fair shares, and the window total.
	WindowOps    []uint64 `json:"window_ops"`
	TotalOps     uint64   `json:"total_ops"`
	HottestShare float64  `json:"hottest_share"`
	FairShare    float64  `json:"fair_share"`
}

// Rebalancer closes the loop between the per-shard metrics and the
// elastic topology: sample per-shard operation deltas each window,
// detect a hot shard, split it (or merge cold split-created shards
// back). Drive it from ONE thread at deterministic instants —
// typically the harness's thread-0 sampling tick — so its decision
// journal (the same journal.Log the adaptive.Tuner keeps) is
// replayable byte-for-byte per seed.
type Rebalancer struct {
	e       *Elastic
	cfg     RebalanceConfig
	initial int // active shards at attach time; merges never shrink below this
	last    []uint64
	window  int
	cool    int
	journal journal.Log[RebalanceDecision]
}

// NewRebalancer attaches a rebalancer to e.
func NewRebalancer(e *Elastic, cfg RebalanceConfig) *Rebalancer {
	cfg.normalize()
	return &Rebalancer{
		e:       e,
		cfg:     cfg,
		initial: e.table.Load().Active(),
		last:    e.ShardOps(),
	}
}

// Step samples one window and, if the evidence warrants, splits the
// hottest shard or merges the coldest split-created pair. It returns
// the decision it journaled. Call from a single thread.
func (rb *Rebalancer) Step(th *memsim.Thread) RebalanceDecision {
	rb.window++
	cur := rb.e.ShardOps()
	ring := rb.e.table.Load()
	d := RebalanceDecision{
		Window:    rb.window,
		Now:       th.Now(),
		Action:    "hold",
		From:      -1,
		To:        -1,
		Epoch:     ring.Epoch(),
		WindowOps: make([]uint64, len(cur)),
	}
	hot, hotOps := -1, uint64(0)
	for i := range cur {
		w := cur[i] - rb.last[i]
		d.WindowOps[i] = w
		d.TotalOps += w
		if ring.SlotCount(i) > 0 && w > hotOps {
			hot, hotOps = i, w
		}
	}
	rb.last = cur

	d.FairShare = 1.0 / float64(ring.Active())
	if d.TotalOps > 0 && hot >= 0 {
		d.HottestShare = float64(hotOps) / float64(d.TotalOps)
	}

	switch {
	case rb.cool > 0:
		rb.cool--
		d.Reason = "cooldown"
	case d.TotalOps < rb.cfg.MinOps:
		d.Reason = "below-min-ops"
	case hot >= 0 && d.HottestShare > rb.cfg.SplitRatio*d.FairShare &&
		d.HottestShare >= rb.cfg.MinShare:
		rb.decideSplit(th, hot, &d)
	case rb.cfg.MergeRatio > 0 && ring.Active() > rb.initial:
		rb.decideMerge(th, ring, &d)
		if d.Action == "hold" && d.Reason == "" {
			d.Reason = "balanced"
		}
	default:
		d.Reason = "balanced"
	}
	rb.journal.Append(d)
	return d
}

func (rb *Rebalancer) decideSplit(th *memsim.Thread, hot int, d *RebalanceDecision) {
	to, moved, err := rb.e.Split(th, hot)
	switch {
	case err == ErrNoSpareShard:
		d.Reason = "no-spare"
	case err != nil:
		// Single-slot shard or concurrent topology change: journal the
		// evidence and hold.
		d.Reason = "split-failed"
	default:
		d.Action, d.Reason = "split", "hot-shard"
		d.From, d.To = hot, to
		d.MovedKeys = moved
		d.Epoch = rb.e.table.Load().Epoch()
		rb.cool = rb.cfg.Cooldown
	}
}

// decideMerge folds the coldest above-initial shard into the coldest of
// the remaining active shards when both are under MergeRatio × fair.
func (rb *Rebalancer) decideMerge(th *memsim.Thread, ring *route.Ring, d *RebalanceDecision) {
	cold1, cold2 := -1, -1
	var w1, w2 uint64
	for i, w := range d.WindowOps {
		if ring.SlotCount(i) == 0 {
			continue
		}
		switch {
		case cold1 < 0 || w < w1:
			cold1, w1, cold2, w2 = i, w, cold1, w1
		case cold2 < 0 || w < w2:
			cold2, w2 = i, w
		}
	}
	if cold1 < 0 || cold2 < 0 {
		return
	}
	limit := rb.cfg.MergeRatio * d.FairShare * float64(d.TotalOps)
	if float64(w1) >= limit || float64(w2) >= limit {
		return
	}
	moved, err := rb.e.Merge(th, cold1, cold2)
	if err != nil {
		d.Reason = "merge-failed"
		return
	}
	d.Action, d.Reason = "merge", "cold-shards"
	d.From, d.To = cold1, cold2
	d.MovedKeys = moved
	d.Epoch = rb.e.table.Load().Epoch()
	rb.cool = rb.cfg.Cooldown
}

// Journal returns the decision journal: one entry per Step, hold
// windows included. Readers may snapshot or export it lock-free while
// Step is still appending; its JSON is the byte-identical-per-seed
// replay artifact.
func (rb *Rebalancer) Journal() *journal.Log[RebalanceDecision] { return &rb.journal }

// Text renders the journal's actions for human consumption.
func (rb *Rebalancer) Text() string {
	var b strings.Builder
	for _, d := range rb.journal.Entries() {
		if d.Action == "hold" {
			continue
		}
		fmt.Fprintf(&b, "w%03d t=%d %s %d→%d moved=%d hottest=%.0f%% (fair %.0f%%) epoch=%d\n",
			d.Window, d.Now, d.Action, d.From, d.To, d.MovedKeys,
			100*d.HottestShare, 100*d.FairShare, d.Epoch)
	}
	return b.String()
}
