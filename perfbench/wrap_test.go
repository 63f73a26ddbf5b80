package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/events"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// workloadPrefetchers is every prefetcher the benchmark's workloads run.
var workloadPrefetchers = []string{"none", "bop", "spp", "planaria", "planaria-slp", "planaria-tlp"}

// runOnce simulates n records of app under pf, traced or not, with the
// decision-event attribution on so SetEventSink forwarding is exercised.
func runOnce(t *testing.T, app, pf string, n int, traced bool) (any, *events.AttribSnapshot) {
	t.Helper()
	p, _ := workloads.ByAbbr(app)
	logLimit := 0
	if traced {
		logLimit = 1000
	}
	r, err := newEngineRun(pf, p.Stream(n), traced, logLimit)
	if err != nil {
		t.Fatal(err)
	}
	r.cfg.Events = &events.Config{}
	eng := sim.New(r.cfg)
	rep, err := eng.RunWarmStream(r.stream, app, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return rep, eng.Events().Attrib()
}

func TestWrappersTransparent(t *testing.T) {
	for _, pf := range workloadPrefetchers {
		for _, app := range []string{"CFM", "Fort"} {
			plainRep, plainAttrib := runOnce(t, app, pf, 40_000, false)
			tracedRep, tracedAttrib := runOnce(t, app, pf, 40_000, true)
			if !reflect.DeepEqual(plainRep, tracedRep) {
				t.Errorf("%s/%s: traced report differs from untraced", app, pf)
			}
			if !reflect.DeepEqual(plainAttrib, tracedAttrib) {
				t.Errorf("%s/%s: traced attribution differs from untraced", app, pf)
			}
		}
	}
}

// TestWrapperInterfaces pins the optional-interface parity the engine's
// type assertions rely on.
func TestWrapperInterfaces(t *testing.T) {
	for _, pf := range workloadPrefetchers {
		factory, err := sim.NamedPrefetcher(pf)
		if err != nil {
			t.Fatal(err)
		}
		inner := factory(0)
		w := wrapPrefetcher(&pfTimer{inner: inner})
		for _, c := range []struct {
			name string
			has  func(any) bool
		}{
			{"Origin", func(v any) bool { _, ok := v.(originTracker); return ok }},
			{"SetEventSink", func(v any) bool { _, ok := v.(eventSinkSetter); return ok }},
		} {
			if c.has(inner) != c.has(w) {
				t.Errorf("%s: wrapper has %s = %t, inner %t", pf, c.name, c.has(w), c.has(inner))
			}
		}
		if _, ok := w.(prefetch.BufferedIssuer); !ok {
			t.Errorf("%s: wrapper lacks IssueTo", pf)
		}
	}
}

// deterministicRows are the ledger's work counts: simulated or counted, never
// timed, so two runs of the same inputs must agree exactly on any host.
var deterministicRows = []string{
	"source.traces_generated", "source.traces_distinct", "sim.records",
	"farm.cells_run", "farm.cells_distinct",
	"tlp.best_neighbor_calls_per_record", "dram.requests_per_record",
	"pf.candidates_per_issue",
	"queue.candidates", "queue.filtered", "queue.issued", "queue.dropped",
	"cache.useful_prefetches", "cache.wasted_prefetches", "cache.pollution_evicts", "cache.writebacks",
	"dram.row_hit_rate", "dram.avg_demand_read_latency_cycles", "dram.bus_busy_frac",
}

func TestCountsRepeat(t *testing.T) {
	p, _ := workloads.ByAbbr("CFM")
	path := filepath.Join(t.TempDir(), "cfm.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAll(f, p.Generate(60_000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []config{
		{workload: "replay", tracePath: path, pf: "planaria", pairs: 1, replays: 1, logLimit: 5000},
		{workload: "bundle", n: 3000, pairs: 1, replays: 1, logLimit: 1000},
	} {
		a, err := run(io.Discard, c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(io.Discard, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range deterministicRows {
			va, ok := a[name]
			if !ok {
				t.Errorf("%s: row %s missing", c.workload, name)
			}
			if va != b[name] {
				t.Errorf("%s: row %s = %v then %v", c.workload, name, va, b[name])
			}
		}
	}
}

// TestBundleCounts pins the bundle's engine runs as the program makes them
// (farm.cells_run, counted through Options.Counters) and checks that the
// traced copy makes the same runs, one generated trace each.
func TestBundleCounts(t *testing.T) {
	m, err := run(io.Discard, config{workload: "bundle", n: 2000, pairs: 1, replays: 1, logLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	apps := float64(len(workloads.Catalog()))
	// Figure 7 (4 prefetchers) + Figure 9 (4) + Figure 9b (1) per app, over
	// none, bop, spp, planaria, planaria-slp and planaria-tlp.
	if got, want := m["farm.cells_run"], 9*apps; got != want {
		t.Errorf("farm.cells_run = %v, want %v", got, want)
	}
	if got, want := m["source.traces_generated"], m["farm.cells_run"]; got != want {
		t.Errorf("traced copy generated %v traces, the program made %v engine runs", got, want)
	}
	if got, want := m["farm.cells_distinct"], 6*apps; got != want {
		t.Errorf("farm.cells_distinct = %v, want %v", got, want)
	}
	if got, want := m["source.traces_distinct"], apps; got != want {
		t.Errorf("source.traces_distinct = %v, want %v", got, want)
	}
}
