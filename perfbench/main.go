// Command perfbench-tracer is the traced half of the end-to-end benchmark
// (run.py runs it for --trace 1). It runs one workload through the
// layers' public Go functions, alternating untraced and traced passes (for
// the bundle: the experiments package's own functions, then a copy of them
// with the timing wrappers injected), and checks that every pass produced
// the same simulated output. It then replays the recorded access stream
// through standalone SLP, TLP, cache and DRAM instances, prints the
// per-layer cost ledger and writes the per-layer metrics as JSON.
//
//	perfbench-tracer -workload replay -trace cfm.bin -pf planaria -metrics m.json -output rep.json
//	perfbench-tracer -workload bundle -n 800000 -metrics m.json -output bundle.txt
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	rmetrics "repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	c := config{replays: 3, logLimit: 500_000}
	flag.StringVar(&c.workload, "workload", "", "replay or bundle")
	flag.StringVar(&c.tracePath, "trace", "", "replay: binary trace file")
	flag.StringVar(&c.pf, "pf", "planaria", "replay: prefetcher")
	flag.IntVar(&c.n, "n", 800_000, "bundle: records per application trace")
	flag.IntVar(&c.pairs, "pairs", 2, "untraced/traced pass pairs")
	flag.StringVar(&c.metricsPath, "metrics", "", "write the per-layer metrics (JSON object of name → value) here")
	flag.StringVar(&c.outputPath, "output", "", "write the simulated output (replay: report JSON; bundle: text tables) here")
	flag.Parse()
	m, err := run(os.Stdout, c)
	if err == nil && c.metricsPath != "" {
		err = writeJSON(c.metricsPath, m)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench-tracer:", err)
		os.Exit(1)
	}
}

type config struct {
	workload, tracePath, pf string
	n, pairs                int
	replays                 int // repeats of each layer replay
	logLimit                int // accesses recorded per engine unit for the layer replays
	metricsPath, outputPath string
}

// pass is one untraced or traced run of the workload.
type pass struct {
	total   phase      // the whole pass
	engine  phase      // the stretches that run engines
	records int64      // records the engines processed
	t       *tally     // wrapper and report tallies; nil for an untraced bundle
	bundle  *bundleRun // nil for a replay
	output  []byte
}

func runPass(c config, traced bool) (pass, error) {
	var p pass
	var err error
	switch c.workload {
	case "replay":
		p.t = newTally()
		p.total, err = measure(func() error {
			rep, err := runReplay(p.t, c.tracePath, c.pf, traced)
			if err == nil {
				p.output, err = json.Marshal(rep)
			}
			return err
		})
		p.engine, p.records = p.total, p.t.records
	case "bundle":
		var w bytes.Buffer
		p.total, err = measure(func() error {
			var err error
			if traced {
				p.bundle, err = runTracedBundle(&w, c.n)
			} else {
				p.bundle, err = runBundle(&w, c.n)
			}
			return err
		})
		if err == nil {
			p.t, p.engine, p.records, p.output = p.bundle.t, p.bundle.engine, p.bundle.records, w.Bytes()
		}
	default:
		err = fmt.Errorf("unknown -workload %q (want replay or bundle)", c.workload)
	}
	return p, err
}

// record captures the access stream the layer replays run on: the replay's
// own trace, or for the bundle its CFM/planaria cell.
func record(c config) ([]*accessLog, error) {
	if c.workload == "bundle" {
		p, _ := workloads.ByAbbr("CFM")
		return recordAccesses("planaria", p.Stream(c.n), c.logLimit)
	}
	mt, err := trace.OpenMapped(c.tracePath)
	if err != nil {
		return nil, err
	}
	defer mt.Close()
	s, err := mt.Stream()
	if err != nil {
		return nil, err
	}
	return recordAccesses(c.pf, s, c.logLimit)
}

func run(out io.Writer, c config) (map[string]float64, error) {
	if c.pairs < 1 || c.replays < 1 {
		return nil, errors.New("-pairs and -replays must be at least 1")
	}
	clk := clockCost()
	var untraced, traced []pass
	for i := 0; i < c.pairs; i++ {
		for _, on := range []bool{false, true} {
			p, err := runPass(c, on)
			if err != nil {
				return nil, err
			}
			if on {
				traced = append(traced, p)
			} else {
				untraced = append(untraced, p)
			}
			if !bytes.Equal(p.output, untraced[0].output) {
				return nil, fmt.Errorf("pass %d (traced=%t) output differs from the first untraced pass", i, on)
			}
		}
	}
	if c.outputPath != "" {
		if err := os.WriteFile(c.outputPath, untraced[0].output, 0o644); err != nil {
			return nil, err
		}
	}

	m := map[string]float64{}
	last := traced[len(traced)-1].t
	records := float64(untraced[0].records)
	if records == 0 {
		return nil, errors.New("no records simulated")
	}
	headline := c.pf
	if c.workload == "bundle" {
		headline = "planaria"
	}

	// End-to-end engine cost, untraced.
	m["sim.records"] = records
	m["sim.ns_per_record"] = median(each(untraced, func(p pass) float64 { return float64(p.engine.wall) })) / records
	m["sim.cpu_ns_per_record"] = median(each(untraced, func(p pass) float64 { return float64(p.engine.cpu) })) / records
	m["sim.cpu_per_wall"] = median(each(untraced, func(p pass) float64 { return float64(p.engine.cpu) / float64(p.engine.wall) }))
	m["runtime.alloc_bytes_per_record"] = median(each(untraced, func(p pass) float64 { return float64(p.engine.allocBytes) })) / records
	m["runtime.gc_cpu_frac"] = median(each(untraced, func(p pass) float64 { return p.engine.gcCPU / p.engine.cpu.Seconds() }))

	// Tracing overhead: the same passes with and without the wrappers.
	uw := median(each(untraced, func(p pass) float64 { return p.total.wall.Seconds() }))
	tw := median(each(traced, func(p pass) float64 { return p.total.wall.Seconds() }))
	m["trace.untraced_wall_s"], m["trace.wall_s"] = uw, tw
	m["trace.overhead_s"], m["trace.overhead_frac"] = tw-uw, (tw-uw)/uw

	// Trace source and prefetchers, from the wrappers of the traced passes.
	m["source.ns_per_record"] = median(each(traced, func(p pass) float64 { return p.t.sourceNs / float64(p.t.records) }))
	m["source.traces_generated"] = float64(last.streams)
	m["source.traces_distinct"] = float64(len(last.distinct))
	pfRow := func(p pass) float64 {
		var ns float64
		for _, pt := range p.t.pf {
			ns += pt.trainPerCall(clk)*float64(pt.trains) + pt.issuePerCall(clk)*float64(pt.issues)
		}
		return ns / float64(p.t.records)
	}
	ledgerPF := median(each(traced, pfRow))
	if pt := last.pf[headline]; pt != nil && pt.issues > 0 {
		m["pf.candidates_per_issue"] = float64(pt.candidates) / float64(pt.issues)
	}
	logs, err := record(c)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"planaria", "bop", "spp"} {
		if _, ok := last.pf[name]; ok {
			m["pf."+name+".train_ns"] = median(each(traced, func(p pass) float64 { return p.t.pf[name].trainPerCall(clk) }))
			m["pf."+name+".issue_ns"] = median(each(traced, func(p pass) float64 { return p.t.pf[name].issuePerCall(clk) }))
			continue
		}
		var tr, is []float64
		for i := 0; i < c.replays; i++ {
			a, b, err := replayPrefetcher(name, logs, clk)
			if err != nil {
				return nil, err
			}
			tr, is = append(tr, a), append(is, b)
		}
		m["pf."+name+".train_ns"], m["pf."+name+".issue_ns"] = median(tr), median(is)
	}

	// SLP, TLP, cache and DRAM, from replays of the recorded accesses.
	var subs []subLayers
	var mems []memLayers
	for i := 0; i < c.replays; i++ {
		subs = append(subs, replaySubPrefetchers(logs, clk))
		mem, err := replayMemory(logs)
		if err != nil {
			return nil, err
		}
		mems = append(mems, mem)
	}
	m["slp.train_ns"] = median(each(subs, func(s subLayers) float64 { return s.slpTrain }))
	m["slp.issue_ns"] = median(each(subs, func(s subLayers) float64 { return s.slpIssue }))
	m["tlp.train_ns"] = median(each(subs, func(s subLayers) float64 { return s.tlpTrain }))
	m["tlp.best_neighbor_ns"] = median(each(subs, func(s subLayers) float64 { return s.tlpBestNeighbor }))
	m["tlp.best_neighbor_calls_per_record"] = float64(subs[0].bestNeighborCalls) / float64(subs[0].accesses)
	m["cache.ns_per_access"] = median(each(mems, func(x memLayers) float64 { return x.cacheNsPerAccess }))
	m["dram.ns_per_request"] = median(each(mems, func(x memLayers) float64 { return x.dramNsPerRequest }))

	// Simulated counts, summed over every engine run's report.
	addReportCounts(m, last.reports)

	// Sweep farm and bundle phases, untraced. A replay is one job on one
	// worker with no bundle phases.
	phases := []string{"fig4", "fig5", "fig7", "fig9", "fig9b"}
	for _, f := range phases {
		m["bundle."+f+"_s"] = 0
	}
	m["farm.cells_run"], m["farm.cells_distinct"] = float64(last.streams), float64(len(last.cells))
	m["farm.worker_busy_frac"] = 1
	m["farm.cell_s_max"] = float64(last.cellMaxNs) / 1e9
	if c.workload == "bundle" {
		b := untraced[len(untraced)-1].bundle
		for _, f := range phases {
			m["bundle."+f+"_s"] = b.phases[f].wall.Seconds()
		}
		// Every engine run processes all n records of its trace, warmup
		// included, so the program's record count gives its engine runs.
		m["farm.cells_run"] = records / float64(c.n)
		m["farm.worker_busy_frac"] = float64(b.poolCPU) / (float64(b.workers) * float64(b.poolWall))
	}
	if c.workload == "replay" {
		m["farm.cell_s_max"] = median(each(untraced, func(p pass) float64 { return float64(p.t.cellMaxNs) / 1e9 }))
	}
	if m["farm.cells_run"] != float64(last.streams) {
		fmt.Fprintf(out, "note: the program made %.4g engine runs, the traced copy %d; "+
			"the traced rows describe the copy\n", m["farm.cells_run"], last.streams)
	}

	// The ledger: each layer's ns per record beside the end-to-end CPU ns
	// per record; what the rows leave unexplained is the residual.
	rows := []ledgerRow{
		{"source", "trace source (generator or mmap decode)", m["source.ns_per_record"]},
		{"prefetcher", "train + issue, in-engine (sampled 1 in 8)", ledgerPF},
		{"cache", "cache replay, per access", m["cache.ns_per_access"]},
		{"dram", "DRAM replay, per request × requests/record", m["dram.ns_per_request"] * m["dram.requests_per_record"]},
	}
	var sum float64
	for _, r := range rows {
		sum += r.ns
	}
	m["sim.residual_ns_per_record"] = m["sim.cpu_ns_per_record"] - sum
	printLedger(out, c, m, rows, subs, sum)
	return m, nil
}

// addReportCounts derives the queue, cache and DRAM rows from the reports
// of every engine run. They are simulated, so they repeat exactly.
func addReportCounts(m map[string]float64, reps []rmetrics.Report) {
	var q struct{ cand, filt, iss, drop uint64 }
	var useful, wasted, pollution, writebacks, accesses uint64
	var dramReqs, rowHits, rowAll, demandLat, demandReads, busBusy, busCycles uint64
	for _, r := range reps {
		q.cand += r.Prefetch.Candidates
		q.filt += r.Prefetch.Filtered
		q.iss += r.Prefetch.Issued
		q.drop += r.Prefetch.Dropped
		useful += r.Cache.UsefulPrefetches
		wasted += r.Cache.WastedPrefetches
		pollution += r.Cache.PollutionEvicts
		writebacks += r.Cache.Writebacks
		accesses += r.Cache.DemandAccesses
		dramReqs += r.DRAM.Reads + r.DRAM.Writes
		rowHits += r.DRAM.RowHits
		rowAll += r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowEmpty
		demandLat += r.DRAM.TotalDemandReadLat
		demandReads += r.DRAM.DemandReads
		busBusy += r.DRAM.BusBusy
		busCycles += r.Cycles * uint64(r.Channels)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["queue.candidates"], m["queue.filtered"] = float64(q.cand), float64(q.filt)
	m["queue.issued"], m["queue.dropped"] = float64(q.iss), float64(q.drop)
	m["cache.useful_prefetches"], m["cache.wasted_prefetches"] = float64(useful), float64(wasted)
	m["cache.pollution_evicts"], m["cache.writebacks"] = float64(pollution), float64(writebacks)
	m["dram.requests_per_record"] = ratio(dramReqs, accesses)
	m["dram.row_hit_rate"] = ratio(rowHits, rowAll)
	m["dram.avg_demand_read_latency_cycles"] = ratio(demandLat, demandReads)
	m["dram.bus_busy_frac"] = ratio(busBusy, busCycles)
}

type ledgerRow struct {
	name, how string
	ns        float64
}

func printLedger(w io.Writer, c config, m map[string]float64, rows []ledgerRow, subs []subLayers, sum float64) {
	e2e := m["sim.cpu_ns_per_record"]
	share := func(ns float64) string { return fmt.Sprintf("%5.1f%%", 100*ns/e2e) }
	fmt.Fprintf(w, "\n== cost ledger: %s (%d untraced/traced pairs, %d layer replays) ==\n", c.workload, c.pairs, c.replays)
	fmt.Fprintf(w, "%-12s %12s %7s  %s\n", "layer", "ns/record", "share", "measured as")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.1f %7s  %s\n", r.name, r.ns, share(r.ns), r.how)
	}
	fmt.Fprintf(w, "%-12s %12.1f %7s\n", "sum", sum, share(sum))
	fmt.Fprintf(w, "%-12s %12.1f %7s  untraced process CPU / records\n", "end-to-end", e2e, share(e2e))
	fmt.Fprintf(w, "%-12s %12.1f %7s  end-to-end − sum\n", "residual", e2e-sum, share(e2e-sum))
	fmt.Fprintf(w, "tracing overhead: %+.3f s wall (%+.1f%%) over %.3f s untraced\n",
		m["trace.overhead_s"], 100*m["trace.overhead_frac"], m["trace.untraced_wall_s"])

	fmt.Fprintf(w, "\nlayer replays (ns per call: median [q1, q3] over %d repeats)\n", len(subs))
	for _, r := range []struct {
		name string
		f    func(subLayers) float64
	}{
		{"slp.train", func(s subLayers) float64 { return s.slpTrain }},
		{"slp.issue", func(s subLayers) float64 { return s.slpIssue }},
		{"tlp.train", func(s subLayers) float64 { return s.tlpTrain }},
		{"tlp.best_neighbor", func(s subLayers) float64 { return s.tlpBestNeighbor }},
	} {
		q1, q2, q3 := quartiles(each(subs, r.f))
		fmt.Fprintf(w, "  %-18s %8.1f [%.1f, %.1f]\n", r.name, q2, q1, q3)
	}
	fmt.Fprintf(w, "  tlp.best_neighbor calls/record %.4f (coordinator model over the recorded prefix)\n",
		m["tlp.best_neighbor_calls_per_record"])
}

func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the lower quartile, median and upper quartile of xs by
// linear interpolation between order statistics.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
