package main

// Workload runs: the same runs the repository's CLIs make, from the
// layers' public Go functions. runReplay is `planaria-sim -trace <file> -pf
// <name> -subshards 1`, traced or not. runBundle is `experiments -run all
// -subshards 1` through the experiments package's own functions;
// runTracedBundle rebuilds it with the timing wrappers injected. Both print
// the CLI's text output byte for byte (the benchmark checks that).

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/experiments"
	rmetrics "repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// phase is the host cost of one stretch of work in this process.
type phase struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCPU      float64 // the runtime's GC CPU estimate, seconds
}

func (p *phase) add(q phase) {
	p.wall += q.wall
	p.cpu += q.cpu
	p.allocBytes += q.allocBytes
	p.gcCPU += q.gcCPU
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU reads the runtime's estimate of CPU time spent in the garbage
// collector so far (updated at every collection).
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// measure runs f and returns its wall time, process CPU time, heap bytes
// allocated and the runtime's GC CPU estimate.
func measure(f func() error) (phase, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	gc0 := gcCPU()
	cpu0 := processCPU()
	t0 := time.Now()
	err := f()
	p := phase{wall: time.Since(t0), cpu: processCPU() - cpu0}
	p.gcCPU = gcCPU() - gc0
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - alloc0
	return p, err
}

// pfTally sums the wrapper counters of every unit of every engine run of one
// prefetcher.
type pfTally struct {
	trains, issues, candidates uint64
	trainNs, issueNs           int64
	trainTimed, issueTimed     uint64
}

func (t *pfTally) add(p *pfTimer) {
	t.trains += p.trains
	t.issues += p.issues
	t.candidates += p.candidates
	t.trainNs += p.trainNs
	t.issueNs += p.issueNs
	t.trainTimed += p.trainTimed
	t.issueTimed += p.issTimed
}

func (t *pfTally) trainPerCall(clk float64) float64 {
	return perCall(time.Duration(t.trainNs), t.trainTimed, clk)
}

func (t *pfTally) issuePerCall(clk float64) float64 {
	return perCall(time.Duration(t.issueNs), t.issueTimed, clk)
}

// tally collects what the wrappers saw across a workload's engine runs.
type tally struct {
	mu        sync.Mutex
	pf        map[string]*pfTally
	sourceNs  float64         // time spent pulling records, traced runs only
	records   int64           // records streamed into engines
	streams   int             // engine runs, one source each
	distinct  map[string]bool // distinct (app, seed, length) sources
	cells     map[string]bool // distinct (workload, prefetcher) cells
	reports   []rmetrics.Report
	logs      []*accessLog // recording runs only
	cellMaxNs int64
}

func newTally() *tally {
	return &tally{pf: map[string]*pfTally{}, distinct: map[string]bool{}, cells: map[string]bool{}}
}

// engineRun is one engine run's wiring: the config, the stream and, when
// traced, the wrappers to fold into the tally afterwards.
type engineRun struct {
	cfg    sim.Config
	stream trace.Stream
	timed  *timedStream
	timers []*pfTimer
}

// newEngineRun builds the CLIs' configuration for one run: the named
// prefetcher, the paper geometry (one sub-shard per channel) and the
// parallel per-channel engine, with telemetry, events and sampling off.
// traced wraps the source and every unit's prefetcher; logLimit > 0 also
// records up to that many accesses per unit (recording perturbs the
// timings, so timed passes never record).
func newEngineRun(pfName string, s trace.Stream, traced bool, logLimit int) (*engineRun, error) {
	factory, err := sim.NamedPrefetcher(pfName)
	if err != nil {
		return nil, err
	}
	r := &engineRun{cfg: sim.DefaultConfig(), stream: s}
	r.cfg.SubShards = 1
	r.cfg.ParallelChannels = true
	r.cfg.NewPrefetcher = factory
	if traced {
		r.timed = &timedStream{inner: s}
		r.stream = r.timed
		r.cfg.NewPrefetcher = func(ch int) prefetch.Prefetcher {
			t := &pfTimer{inner: factory(ch)}
			if logLimit > 0 {
				t.log = &accessLog{limit: logLimit}
			}
			r.timers = append(r.timers, t)
			return wrapPrefetcher(t)
		}
	}
	return r, nil
}

// run executes the engine and, when traced, folds the wrappers into t.
func (r *engineRun) run(t *tally, pfName, workload, sourceKey string, warmup float64) (rmetrics.Report, error) {
	records := trace.StreamLen(r.stream)
	t0 := time.Now()
	rep, err := sim.New(r.cfg).RunWarmStream(r.stream, workload, warmup)
	ns := int64(time.Since(t0))
	if err != nil {
		return rep, fmt.Errorf("%s/%s: %w", workload, pfName, err)
	}
	if rep.Truncated {
		return rep, fmt.Errorf("%s/%s: truncated report", workload, pfName)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cellMaxNs = max(t.cellMaxNs, ns)
	t.streams++
	t.records += int64(records)
	t.distinct[sourceKey] = true
	t.cells[workload+"/"+pfName] = true
	t.reports = append(t.reports, rep)
	if r.timed != nil {
		t.sourceNs += r.timed.ns()
		pt := t.pf[pfName]
		if pt == nil {
			pt = &pfTally{}
			t.pf[pfName] = pt
		}
		for _, tm := range r.timers {
			pt.add(tm)
			if tm.log != nil {
				t.logs = append(t.logs, tm.log)
			}
		}
	}
	return rep, nil
}

// runReplay replays a binary trace file through the mmap path, as
// planaria-sim -trace does (warmup 0, the file path as the workload name).
func runReplay(t *tally, path, pfName string, traced bool) (rmetrics.Report, error) {
	mt, err := trace.OpenMapped(path)
	if err != nil {
		return rmetrics.Report{}, err
	}
	defer mt.Close()
	s, err := mt.Stream()
	if err != nil {
		return rmetrics.Report{}, err
	}
	r, err := newEngineRun(pfName, s, traced, 0)
	if err != nil {
		return rmetrics.Report{}, err
	}
	return r.run(t, pfName, path, path, 0)
}

// recordAccesses runs pfName over the first records of s with recording
// wrappers and returns each unit's access log, up to limit accesses per
// unit. The engine is causal, so the logs equal the start of what a full
// run sees.
func recordAccesses(pfName string, s trace.Stream, limit int) ([]*accessLog, error) {
	r, err := newEngineRun(pfName, &prefixStream{inner: s, left: 4 * limit}, true, limit)
	if err != nil {
		return nil, err
	}
	t := newTally()
	if _, err := r.run(t, pfName, "record", "record", 0); err != nil {
		return nil, err
	}
	return t.logs, nil
}

// prefixStream ends s after a number of records.
type prefixStream struct {
	inner trace.Stream
	left  int
}

func (p *prefixStream) Next() (trace.Record, bool) {
	if p.left <= 0 {
		return trace.Record{}, false
	}
	p.left--
	return p.inner.Next()
}

func (p *prefixStream) NextChunk(dst []trace.Record) int {
	n := trace.ReadChunk(p.inner, dst[:min(len(dst), p.left)])
	p.left -= n
	return n
}

func (p *prefixStream) Err() error { return p.inner.Err() }

// bundleRun is one pass of the paper bundle.
type bundleRun struct {
	phases   map[string]phase // fig4, fig5, fig7, fig9, fig9b, ...
	engine   phase            // sum of the phases that run engines
	records  int64            // records the engines processed
	poolWall time.Duration    // wall time of the Figure 7 and 9 sweeps
	poolCPU  time.Duration    // process CPU time of those sweeps
	workers  int

	t *tally // the traced copy's wrapper counts; nil for a program pass
}

// bundleWarmup is cmd/experiments' default -warmup.
const bundleWarmup = 0.2

// timePhase times f as the named phase of b and stores its error in *err;
// once *err is non-nil it does nothing.
func (b *bundleRun) timePhase(err *error, name string, engine bool, f func() error) {
	if *err != nil {
		return
	}
	var p phase
	p, *err = measure(f)
	b.phases[name] = p
	if engine {
		b.engine.add(p)
	}
}

// runBundle is `experiments -run all -subshards 1`: it calls the
// experiments package's own functions in experiments.RunAll's order, so
// every engine run goes through experiments.Sweep (the sweep farm) or
// experiments.RunOne exactly as the CLI's do. Each function is timed on its
// own; the records its engines processed come from Options.Counters.
func runBundle(w io.Writer, n int) (*bundleRun, error) {
	ctr := &events.RunCounters{}
	opts := experiments.Options{Requests: n, Warmup: bundleWarmup, SubShards: 1, Counters: ctr}
	b := &bundleRun{phases: map[string]phase{}, workers: runtime.GOMAXPROCS(0)}
	var err error
	var reps map[string]map[string]rmetrics.Report
	b.timePhase(&err, "fig4", false, func() error { experiments.Fig4(w, opts); return nil })
	b.timePhase(&err, "fig5", false, func() error { experiments.Fig5(w, opts); return nil })
	b.timePhase(&err, "fig7", true, func() error {
		var err error
		reps, err = experiments.Fig7(w, opts)
		return err
	})
	b.timePhase(&err, "fig8", false, func() error { experiments.Fig8(w, reps); return nil })
	b.timePhase(&err, "fig9", true, func() error { _, _, err := experiments.Fig9(w, opts); return err })
	b.timePhase(&err, "fig9b", true, func() error { _, err := experiments.Fig9b(w, opts); return err })
	b.timePhase(&err, "fig10", false, func() error { experiments.Fig10(w, reps); return nil })
	b.timePhase(&err, "ipc", false, func() error { experiments.TableIPC(w, reps); return nil })
	b.timePhase(&err, "traffic", false, func() error { experiments.TableTraffic(w, reps); return nil })
	b.timePhase(&err, "storage", false, func() error { _, err := experiments.TableStorage(w); return err })
	if err != nil {
		return nil, err
	}
	b.records = ctr.Records()
	for _, f := range []string{"fig7", "fig9"} {
		b.poolWall += b.phases[f].wall
		b.poolCPU += b.phases[f].cpu
	}
	return b, nil
}

// fig9Prefetchers and fig9bPrefetcher mirror the experiments package's
// Figure 9 sweep set and Figure 9b configuration.
var (
	fig9Prefetchers = []string{"none", "planaria-slp", "planaria-tlp", "planaria"}
	fig9bPrefetcher = "planaria"
)

// runTracedBundle is runBundle with the timing wrappers injected. The
// experiments package offers no hook for them, so this is a copy of
// experiments.RunAll with every engine run built here: Figures 4 and 5
// call the experiments functions directly, the sweeps run on a pool of
// GOMAXPROCS workers in the sweep farm's plan order (app-major, then
// prefetcher), and the Figure 7, 9 and 9b tables are printed by the copies
// below. Its output must equal the CLI's byte for byte (run.py checks), but
// the work it does is the copy's: a change to how the program schedules,
// reuses or generates its runs does not reach it.
func runTracedBundle(w io.Writer, n int) (*bundleRun, error) {
	b := &bundleRun{t: newTally(), phases: map[string]phase{}, workers: runtime.GOMAXPROCS(0)}
	opts := experiments.Options{Requests: n, Warmup: bundleWarmup, SubShards: 1}
	var err error
	b.timePhase(&err, "fig4", false, func() error { experiments.Fig4(w, opts); return nil })
	b.timePhase(&err, "fig5", false, func() error { experiments.Fig5(w, opts); return nil })
	var reps map[string]map[string]rmetrics.Report
	b.timePhase(&err, "fig7", true, func() error {
		var err error
		if reps, err = b.pool(n, experiments.EvalPrefetchers); err != nil {
			return err
		}
		printFig7(w, reps)
		experiments.Fig8(w, reps)
		return nil
	})
	b.timePhase(&err, "fig9", true, func() error {
		reps9, err := b.pool(n, fig9Prefetchers)
		if err != nil {
			return err
		}
		printFig9(w, reps9)
		return nil
	})
	b.timePhase(&err, "fig9b", true, func() error {
		reps9b := map[string]map[string]rmetrics.Report{}
		for _, p := range workloads.Catalog() {
			rep, err := b.cell(p, fig9bPrefetcher, n)
			if err != nil {
				return err
			}
			reps9b[p.Abbr] = map[string]rmetrics.Report{fig9bPrefetcher: rep}
		}
		printFig9b(w, reps9b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	experiments.Fig10(w, reps)
	experiments.TableIPC(w, reps)
	experiments.TableTraffic(w, reps)
	if _, err := experiments.TableStorage(w); err != nil {
		return nil, err
	}
	b.records = b.t.records
	return b, nil
}

// cell runs one traced (app, prefetcher) engine run from the catalog
// generator.
func (b *bundleRun) cell(p workloads.Profile, pfName string, n int) (rmetrics.Report, error) {
	r, err := newEngineRun(pfName, p.Stream(n), true, 0)
	if err != nil {
		return rmetrics.Report{}, err
	}
	return r.run(b.t, pfName, p.Abbr, fmt.Sprintf("%s/%d/%d", p.Abbr, p.Seed, n), bundleWarmup)
}

// pool runs catalog × pfs on b.workers goroutines and returns the reports.
func (b *bundleRun) pool(n int, pfs []string) (map[string]map[string]rmetrics.Report, error) {
	type job struct {
		p  workloads.Profile
		pf string
	}
	var jobs []job
	for _, p := range workloads.Catalog() {
		for _, pf := range pfs {
			jobs = append(jobs, job{p, pf})
		}
	}
	reps := make([]rmetrics.Report, len(jobs))
	errs := make([]error, len(jobs))
	ch := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < b.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				reps[i], errs[i] = b.cell(jobs[i].p, jobs[i].pf, n)
			}
		}()
	}
	for i := range jobs {
		ch <- i
	}
	close(ch)
	wg.Wait()

	out := map[string]map[string]rmetrics.Report{}
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if out[j.p.Abbr] == nil {
			out[j.p.Abbr] = map[string]rmetrics.Report{}
		}
		out[j.p.Abbr][j.pf] = reps[i]
	}
	return out, nil
}

// The three printers below are runTracedBundle's copies of the tables
// experiments.Fig7, Fig9 and Fig9b print after their sweeps.

func header(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-6s", "app")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}

func printFig7(w io.Writer, reps map[string]map[string]rmetrics.Report) {
	header(w, "Figure 7: SC hit rate", experiments.EvalPrefetchers)
	for _, a := range workloads.Abbrs() {
		fmt.Fprintf(w, "%-6s", a)
		for _, pf := range experiments.EvalPrefetchers {
			fmt.Fprintf(w, "%11.1f%%", 100*reps[a][pf].HitRate())
		}
		fmt.Fprintln(w)
	}
}

func printFig9(w io.Writer, reps map[string]map[string]rmetrics.Report) {
	header(w, "Figure 9: breakdown (AMAT reduction share)", []string{"slp-only", "tlp-only", "slp-share"})
	var shares []float64
	for _, a := range workloads.Abbrs() {
		base := reps[a]["none"].AMAT
		full := rmetrics.Reduction(base, reps[a]["planaria"].AMAT)
		slp := rmetrics.Reduction(base, reps[a]["planaria-slp"].AMAT)
		tlp := rmetrics.Reduction(base, reps[a]["planaria-tlp"].AMAT)
		share := 0.0
		if slp+tlp > 0 {
			share = slp / (slp + tlp)
		}
		shares = append(shares, share)
		fmt.Fprintf(w, "%-6s%11.1f%%%11.1f%%%11.1f%%   (full %.1f%%)\n",
			a, 100*slp, 100*tlp, 100*share, 100*full)
	}
	fmt.Fprintf(w, "average SLP share: %.1f%%   (paper: ~80%%)\n", 100*rmetrics.Mean(shares))
}

func printFig9b(w io.Writer, reps map[string]map[string]rmetrics.Report) {
	fmt.Fprintf(w, "\n== Figure 9 (in-system attribution): useful prefetches per sub-prefetcher ==\n")
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "app", "slp", "tlp", "slp-share")
	var shares []float64
	for _, a := range workloads.Abbrs() {
		rep := reps[a][fig9bPrefetcher]
		slp, tlp := rep.UsefulByOrigin["slp"], rep.UsefulByOrigin["tlp"]
		share := 0.0
		if slp+tlp > 0 {
			share = float64(slp) / float64(slp+tlp)
		}
		shares = append(shares, share)
		fmt.Fprintf(w, "%-6s %12d %12d %11.1f%%\n", a, slp, tlp, 100*share)
	}
	fmt.Fprintf(w, "average SLP share of useful prefetches: %.1f%%   (paper: ~80%%)\n", 100*rmetrics.Mean(shares))
}
