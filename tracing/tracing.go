// Package tracing exposes the HCF lifecycle-trace collector for users of
// the hcf module: install a Collector on a framework to see where each
// operation went — per-phase speculative attempt outcomes with abort
// reasons, combiner selection sizes, self vs helped completions, and lock
// acquisitions.
//
//	col := &tracing.Collector{Limit: 100_000}
//	fw.SetTracer(col)
//	env.Run(...)
//	fmt.Print(col.Summary())
//
// See `hcfbench -fig point -probe trace` (cmd/hcfbench) for a ready-made
// command built on this package.
package tracing

import "hcf/internal/trace"

// Collector records and summarizes framework lifecycle events into
// lock-free per-thread buffers. Install with (*hcf.Framework).SetTracer
// (or any baseline engine's SetTracer). Set Limit to turn it into a
// bounded flight recorder: each thread keeps a ring of its Limit most
// recent events while the aggregate counters keep counting past it.
type Collector = trace.Collector

// HotLine is one entry of the conflict-attribution report: a cache line,
// its conflict-abort count, and the dominant writer thread.
type HotLine = trace.HotLine

// SummaryData is the machine-readable form of Collector.Summary.
type SummaryData = trace.SummaryData
