package harness

import (
	"fmt"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/htm"
	"hcf/internal/metrics"
	"hcf/internal/shard"
	"hcf/internal/trace"
)

// outcomeNames labels the transaction outcomes for the metrics recorder:
// index 0 is commit, the rest follow htm.Reason.
func outcomeNames() []string {
	out := make([]string, htm.NumReasons)
	out[0] = "commit"
	for r := 1; r < htm.NumReasons; r++ {
		out[r] = htm.Reason(r).String()
	}
	return out
}

// classNames returns the class labels for inst, defaulting to classN.
func classNames(inst *Instance) []string {
	if len(inst.ClassNames) > 0 {
		return inst.ClassNames
	}
	n := len(inst.Policies)
	if n == 0 {
		n = 1
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("class%d", i)
	}
	return out
}

// Instrument dimensions a metrics recorder for (eng, inst) and installs it;
// latencies are in virtual cycles. It fails only for engines that do not
// implement engine.MeteredEngine (all six in this repository do).
//
// For the sharded engine the recorder is dimensioned with one group per
// shard plus "cross", and each shard gets its own group view, so reports
// break out per-shard throughput and aborts instead of blending shards.
func Instrument(eng engine.Engine, inst *Instance, threads int) (*metrics.Recorder, error) {
	met, ok := eng.(engine.MeteredEngine)
	if !ok {
		return nil, fmt.Errorf("harness: engine %s does not support metrics", eng.Name())
	}
	cfg := metrics.Config{
		Shards:   threads + 1, // workers + bootstrap thread
		Classes:  classNames(inst),
		Paths:    met.CompletionPaths(),
		Outcomes: outcomeNames(),
		TimeUnit: "cycles",
	}
	sh, sharded := eng.(*shard.Sharded)
	if sharded {
		for i := 0; i < sh.NumShards(); i++ {
			cfg.Groups = append(cfg.Groups, fmt.Sprintf("shard%d", i))
		}
		cfg.Groups = append(cfg.Groups, engine.PathCross)
	}
	rec, err := metrics.New(cfg)
	if err != nil {
		return nil, err
	}
	if sharded {
		views := make([]engine.Recorder, sh.NumShards())
		for i := range views {
			views[i] = rec.View(i)
		}
		if err := sh.SetShardRecorders(views, rec.View(sh.NumShards())); err != nil {
			return nil, err
		}
		return rec, nil
	}
	met.SetRecorder(rec)
	return rec, nil
}

// InstrumentTrace installs a lifecycle-trace collector on eng. limit > 0
// turns the collector into a bounded flight recorder (limit most recent
// events per thread); limit == 0 retains everything. It fails only for
// engines that do not implement core.TracedEngine (all six in this
// repository do).
func InstrumentTrace(eng engine.Engine, limit int) (*trace.Collector, error) {
	te, ok := eng.(core.TracedEngine)
	if !ok {
		return nil, fmt.Errorf("harness: engine %s does not support tracing", eng.Name())
	}
	col := &trace.Collector{Limit: limit}
	te.SetTracer(col)
	return col, nil
}
