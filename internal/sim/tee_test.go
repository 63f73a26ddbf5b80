package sim

// Engines on a trace.Tee (run under -race in CI's Chaos step): k engines fed
// by one tee of one generator produce exactly the reports of k engines each
// fed by its own generator, a source error reaches every engine where a
// solo run meets it, and one engine's failure, panic or cancellation
// neither holds back nor perturbs the others.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// teeBranch is one engine on a tee: its context (nil = background) and an
// optional wrapper around its consumer.
type teeBranch struct {
	eng  *Engine
	ctx  context.Context
	wrap func(trace.Stream) trace.Stream
}

// runTee drives every branch concurrently on its own consumer of one tee
// of src, closing each consumer when its engine returns — as the sweep
// farm does.
func runTee(t *testing.T, src trace.Stream, workload string, warmup float64, branches []teeBranch) ([]metrics.Report, []error) {
	t.Helper()
	cons := trace.Tee(src, len(branches))
	reps := make([]metrics.Report, len(branches))
	errs := make([]error, len(branches))
	var wg sync.WaitGroup
	for i, b := range branches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cons[i].Close()
			ctx := b.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var s trace.Stream = cons[i]
			if b.wrap != nil {
				s = b.wrap(s)
			}
			reps[i], errs[i] = b.eng.RunWarmStreamCtx(ctx, s, workload, warmup)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("engines on one tee deadlocked")
	}
	return reps, errs
}

// teeMode is one engine configuration of the tee tests: warmup and
// sampling are on in every mode, since both place barriers by record index.
type teeMode struct {
	parallel    bool
	sampleEvery uint64
	warmup      float64
}

var teeModes = []teeMode{
	{parallel: false, sampleEvery: 2_500, warmup: 0.25},
	{parallel: true, sampleEvery: 2_500, warmup: 0.25},
}

// TestTeeEnginesMatchSolo: for every catalog app, k engines on one tee give
// reports byte-identical to k runs each fed by its own generator. The
// trace spans more chunks than the tee's lag window, so the engines really
// do wait on each other.
func TestTeeEnginesMatchSolo(t *testing.T) {
	const n = 5*trace.ChunkSize + 700
	pfs := []string{"none", "bop", "planaria"}
	for _, p := range workloads.Catalog() {
		for _, m := range teeModes {
			var branches []teeBranch
			for _, pf := range pfs {
				branches = append(branches, teeBranch{eng: engineFor(t, pf, m.parallel, m.sampleEvery)})
			}
			reps, errs := runTee(t, p.Stream(n), p.Abbr, m.warmup, branches)
			for i, pf := range pfs {
				if errs[i] != nil {
					t.Fatalf("%s/%s parallel=%v: %v", p.Abbr, pf, m.parallel, errs[i])
				}
				solo, err := engineFor(t, pf, m.parallel, m.sampleEvery).RunWarmStream(p.Stream(n), p.Abbr, m.warmup)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := reportJSON(t, reps[i]), reportJSON(t, solo); got != want {
					t.Fatalf("%s/%s parallel=%v: tee report differs from solo\ntee:  %s\nsolo: %s",
						p.Abbr, pf, m.parallel, got, want)
				}
			}
		}
	}
}

// cancelAfter cancels a context once its stream has delivered at least k
// records; the engine then stops at its next chunk boundary.
type cancelAfter struct {
	trace.Stream
	k      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) NextChunk(dst []trace.Record) int {
	n := trace.ReadChunk(c.Stream, dst)
	if c.seen += n; c.seen >= c.k {
		c.cancel()
	}
	return n
}

func (c *cancelAfter) Len() int { return trace.StreamLen(c.Stream) }

// TestTeeChaosReleasesFailedConsumers: one branch fails on an injected
// stream error, one panics (serial) or has its channel worker panic
// (parallel), one is cancelled mid-run. Each failed consumer is released:
// the healthy engines finish with their solo reports, and no goroutine
// outlives the runs.
func TestTeeChaosReleasesFailedConsumers(t *testing.T) {
	const n = 10 * trace.ChunkSize
	p := workloads.Catalog()[0]
	for _, m := range teeModes {
		t.Run(fmt.Sprintf("parallel=%v", m.parallel), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			panicky := DefaultConfig()
			panicky.ParallelChannels = m.parallel
			panicky.SampleEvery = m.sampleEvery
			panicky.NewPrefetcher = func(int) prefetch.Prefetcher { return &panicAfter{n: 300} }
			branches := []teeBranch{
				{eng: engineFor(t, "planaria", m.parallel, m.sampleEvery)},
				{eng: engineFor(t, "bop", m.parallel, m.sampleEvery), wrap: func(s trace.Stream) trace.Stream {
					return faults.Wrap(s, faults.Fault{Kind: faults.ErrAt, At: 3_000})
				}},
				{eng: New(panicky)},
				{eng: engineFor(t, "spp", m.parallel, m.sampleEvery), ctx: ctx, wrap: func(s trace.Stream) trace.Stream {
					return &cancelAfter{Stream: s, k: 2 * trace.ChunkSize, cancel: cancel}
				}},
				{eng: engineFor(t, "none", m.parallel, m.sampleEvery)},
			}
			reps, errs := runTee(t, p.Stream(n), p.Abbr, m.warmup, branches)
			if !errors.Is(errs[1], faults.ErrInjected) || reps[1].FailedAt != 3_000 {
				t.Errorf("stream-fault branch: err %v at %d, want ErrInjected at 3000", errs[1], reps[1].FailedAt)
			}
			if errs[2] == nil {
				t.Error("panicking branch reported no error")
			}
			if !errors.Is(errs[3], context.Canceled) {
				t.Errorf("cancelled branch: err %v, want context.Canceled", errs[3])
			}
			for _, i := range []int{0, 4} {
				pf := []string{"planaria", "", "", "", "none"}[i]
				if errs[i] != nil {
					t.Fatalf("healthy %s branch failed: %v", pf, errs[i])
				}
				solo, err := engineFor(t, pf, m.parallel, m.sampleEvery).RunWarmStream(p.Stream(n), p.Abbr, m.warmup)
				if err != nil {
					t.Fatal(err)
				}
				if reportJSON(t, reps[i]) != reportJSON(t, solo) {
					t.Errorf("healthy %s branch diverged from its solo run", pf)
				}
			}
			checkGoroutines(t, base)
		})
	}
}

// TestTeeSourceErrorReachesEveryConsumer: a source failing mid-trace stops
// every engine on the tee at the same record index, with the same error
// and the same partial report, as a solo run on that source.
func TestTeeSourceErrorReachesEveryConsumer(t *testing.T) {
	const n = 6 * trace.ChunkSize
	p := workloads.Catalog()[3]
	f := faults.Plan(faults.ErrAt, 7, n)
	pfs := []string{"none", "planaria", "spp"}
	for _, m := range teeModes {
		var branches []teeBranch
		for _, pf := range pfs {
			branches = append(branches, teeBranch{eng: engineFor(t, pf, m.parallel, m.sampleEvery)})
		}
		reps, errs := runTee(t, faults.Wrap(p.Stream(n), f), p.Abbr, m.warmup, branches)
		for i, pf := range pfs {
			solo, soloErr := engineFor(t, pf, m.parallel, m.sampleEvery).
				RunWarmStream(faults.Wrap(p.Stream(n), f), p.Abbr, m.warmup)
			if !errors.Is(soloErr, faults.ErrInjected) {
				t.Fatalf("solo run: err %v, want ErrInjected", soloErr)
			}
			if !errors.Is(errs[i], faults.ErrInjected) || reps[i].FailedAt != solo.FailedAt {
				t.Fatalf("%s parallel=%v: err %v at record %d, want ErrInjected at %d",
					pf, m.parallel, errs[i], reps[i].FailedAt, solo.FailedAt)
			}
			if reportJSON(t, reps[i]) != reportJSON(t, solo) {
				t.Fatalf("%s parallel=%v: partial report differs from the solo run's", pf, m.parallel)
			}
		}
	}
}
