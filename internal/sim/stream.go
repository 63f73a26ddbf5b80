package sim

// This file is the streaming face of the engine: RunStream and
// RunWarmStream consume a trace.Stream with O(chunk) memory, so run length
// is bounded by throughput, not RAM. Run and RunWarm survive as thin
// compatibility shims over slice-backed streams; the record-processing code
// is shared, so streamed and materialized runs are bit-identical (pinned by
// internal/sim/stream_test.go).
//
// The Ctx variants add cooperative cancellation and are the primary entry
// points; on any failure — a stream fault, a simulation error or a
// cancelled context — the engine returns a *partial* report marked
// Truncated with the failure position in FailedAt, alongside the error,
// instead of discarding the work already done (docs/PERFORMANCE.md,
// "Failure model").

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrUnsizedWarmup reports a warmup fraction applied to a stream of unknown
// length: the engine cannot place the warmup boundary without a total
// record count. Wrap the stream with a known length (trace.Sized — e.g.
// ReaderStream.WithLen with trace.RecordCount of the file size) or run
// without warmup.
var ErrUnsizedWarmup = errors.New("sim: warmup fraction requires a sized stream (trace.Sized)")

// RunStream processes a whole record stream and returns the aggregated
// report. Memory use is O(chunk), independent of stream length. With
// Config.ParallelChannels set, each execution unit's records are stepped on
// its own goroutine as they arrive; the report is bit-identical to a
// serial run, and to Run on the materialized trace.
func (e *Engine) RunStream(s trace.Stream, workload string) (metrics.Report, error) {
	return e.RunStreamCtx(context.Background(), s, workload)
}

// RunStreamCtx is RunStream with cooperative cancellation: when ctx is
// cancelled the engine stops at the next chunk boundary, tears down every
// unit worker without leaking goroutines, and returns ctx.Err() with a
// partial report (Truncated set, FailedAt at the position the consumer had
// reached).
func (e *Engine) RunStreamCtx(ctx context.Context, s trace.Stream, workload string) (metrics.Report, error) {
	failedAt, err := e.consumeStream(ctx, s, -1)
	return e.finishPartial(workload, failedAt, err)
}

// RunWarmStream processes a stream with the first warmup fraction of
// records used only to warm caches and train prefetchers: statistics (and
// the metrics sampler, when enabled) are reset at the boundary, so the
// report covers the measured region alone. Fractions outside [0, 0.9] are
// clamped. A positive fraction needs a sized stream (ErrUnsizedWarmup
// otherwise); slice and generator streams always know their length.
func (e *Engine) RunWarmStream(s trace.Stream, workload string, warmup float64) (metrics.Report, error) {
	return e.RunWarmStreamCtx(context.Background(), s, workload, warmup)
}

// RunWarmStreamCtx is RunWarmStream with cooperative cancellation (see
// RunStreamCtx for the cancellation and partial-report contract).
func (e *Engine) RunWarmStreamCtx(ctx context.Context, s trace.Stream, workload string, warmup float64) (metrics.Report, error) {
	warmup = clampWarmup(warmup)
	var warmAt int64
	if warmup > 0 {
		n := trace.StreamLen(s)
		if n < 0 {
			// Nothing ran: no partial report to salvage.
			return metrics.Report{}, ErrUnsizedWarmup
		}
		warmAt = int64(float64(n) * warmup)
	}
	failedAt, err := e.consumeStream(ctx, s, warmAt)
	return e.finishPartial(workload, failedAt, err)
}

// finishPartial builds the report; on error it is marked as the partial
// result of a truncated run, with the failure position attached.
func (e *Engine) finishPartial(workload string, failedAt int64, err error) (metrics.Report, error) {
	rep := e.Finish(workload)
	if err != nil {
		rep.Truncated = true
		rep.FailedAt = failedAt
	}
	return rep, err
}

// clampWarmup maps a warmup fraction into [0, 0.9]; NaN and negatives
// disable warmup (a NaN must not survive the clamp — every comparison
// against it is false, so it would otherwise slip through and poison the
// warmup boundary arithmetic).
func clampWarmup(w float64) float64 {
	switch {
	case math.IsNaN(w) || w < 0:
		return 0
	case w > 0.9:
		return 0.9
	}
	return w
}

// consumeStream is the engine's one run loop. It drives every record of s
// through the engine, resetting statistics immediately before global
// record warmAt (warmAt < 0 disables the reset; warmAt at or past the end
// of the stream resets after the last record, matching RunWarm's t[:w] /
// reset / t[w:] split for every w) and closing sampler windows as they fall
// due. Config.ParallelChannels decides only where a unit's records are
// stepped: inline here, through Step, or on the unit's worker (parallel.go).
// Cancellation is observed at chunk boundaries. The returned position is
// where any error is attributed: the failing record for simulation errors
// and panics, the records delivered for stream faults, the stop position
// for cancellation. It is meaningless when err is nil.
func (e *Engine) consumeStream(ctx context.Context, s trace.Stream, warmAt int64) (at int64, err error) {
	if c := e.cfg.Counters; c != nil {
		c.Start()
	}
	var w *workers
	if e.cfg.ParallelChannels && len(e.units) > 1 {
		w = e.startWorkers()
	}
	var global, counted int64
	defer func() {
		// A panic on this goroutine — an inline step, the stream, a
		// snapshot — stops the run at the record it hit.
		if r := recover(); r != nil {
			at, err = global, fmt.Errorf("sim: panic at record %d: %v", global, r)
		}
		// A worker failure is always at an earlier record than where the
		// splitter stopped, so it wins.
		if wat, werr := w.close(); werr != nil {
			at, err = wat, werr
		}
	}()
	in := make([]trace.Record, trace.ChunkSize)
	for {
		select {
		case <-ctx.Done():
			return global, ctx.Err()
		case <-w.failed():
			return global, nil // the worker's error is collected by close
		default:
		}
		n := trace.ReadChunk(s, in)
		if n == 0 {
			break
		}
		for _, rec := range in[:n] {
			if global == warmAt {
				w.pause()
				e.ResetStats()
				w.resume()
			}
			if w == nil {
				if err := e.Step(rec); err != nil {
					return global, err
				}
			} else {
				w.push(unitIndex(rec.Block(), e.shards), rec, global)
				e.count(rec.Cycle, w)
			}
			global++
		}
		// Progress is published at chunk granularity — one atomic add per
		// ~ChunkSize records keeps -progress and -debug-addr nearly free —
		// and additively, so sequential runs sharing one counter set (the
		// experiments CLI) accumulate instead of rewinding.
		if c := e.cfg.Counters; c != nil {
			c.Add(global - counted)
			counted = global
		}
	}
	if warmAt >= global {
		// The whole (possibly empty) stream was warmup: the in-loop
		// boundary never fired, but RunWarm semantics still reset.
		w.pause()
		e.ResetStats()
		w.resume()
	}
	return global, s.Err()
}
