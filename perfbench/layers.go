package main

// Layer replays. The cache, the DRAM controller and Planaria's two
// sub-prefetchers sit inside the engine's per-unit step with no hook, so
// their cost is measured by replaying the access stream an engine unit
// recorded (wrap.go) through standalone instances built with the layers'
// public constructors. The replays are self-consistent: the cache decides
// its own hits and misses and the DRAM controller serves the requests that
// cache produced, so they time the same kind of work the engine does, not
// the engine's exact call sequence. What the rows do not explain shows up
// in the ledger's residual.

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// clockCost returns the smallest reading of an empty time.Now/time.Since
// pair: the floor every timed interval carries from the clock itself.
// Removing the floor rather than the mean keeps per-call figures of very
// cheap calls from going negative.
func clockCost() float64 {
	floor := time.Hour
	for i := 0; i < 100_000; i++ {
		t0 := time.Now()
		floor = min(floor, time.Since(t0))
	}
	return float64(floor)
}

// perCall turns a sum of timed intervals into ns per call with the clock's
// floor removed.
func perCall(sum time.Duration, calls uint64, clk float64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(sum)/float64(calls) - clk
}

// subLayers holds one replay of the recorded streams through standalone SLP
// and TLP instances, modelling the decoupled coordinator: both train on
// every access; on a miss SLP issues first and TLP's best neighbour is
// consulted only when SLP had nothing. bestNeighborCalls counts that
// model's calls over the recorded prefix, not the program's.
type subLayers struct {
	slpTrain, slpIssue, tlpTrain, tlpBestNeighbor float64 // ns per call
	accesses, bestNeighborCalls                   uint64
}

func replaySubPrefetchers(logs []*accessLog, clk float64) subLayers {
	var (
		out                    subLayers
		slpT, slpI, tlpT, tlpB time.Duration
		slpCalls               uint64
	)
	cfg := core.DefaultConfig()
	var buf []addr.BlockNum
	for _, l := range logs {
		slp, tlp := core.NewSLP(cfg.SLP), core.NewTLP(cfg.TLP)
		for _, a := range l.accesses {
			t0 := time.Now()
			slp.Train(a)
			slpT += time.Since(t0)
			t0 = time.Now()
			tlp.Train(a)
			tlpT += time.Since(t0)
			if !a.Miss {
				continue
			}
			t0 = time.Now()
			buf = slp.IssueTo(a, buf[:0])
			slpI += time.Since(t0)
			slpCalls++
			if len(buf) > 0 {
				continue
			}
			t0 = time.Now()
			tlp.BestNeighbor(a.Page())
			tlpB += time.Since(t0)
			out.bestNeighborCalls++
		}
		out.accesses += uint64(len(l.accesses))
	}
	out.slpTrain = perCall(slpT, out.accesses, clk)
	out.tlpTrain = perCall(tlpT, out.accesses, clk)
	out.slpIssue = perCall(slpI, slpCalls, clk)
	out.tlpBestNeighbor = perCall(tlpB, out.bestNeighborCalls, clk)
	return out
}

// replayPrefetcher times a fresh instance of a named prefetcher per unit on
// the recorded streams: the standalone cost of a prefetcher the workload's
// engine did not run.
func replayPrefetcher(name string, logs []*accessLog, clk float64) (train, issue float64, err error) {
	factory, err := sim.NamedPrefetcher(name)
	if err != nil {
		return 0, 0, err
	}
	var tT, tI time.Duration
	var n uint64
	var buf []addr.BlockNum
	for ch, l := range logs {
		pf := factory(ch)
		issuer, _ := pf.(prefetch.BufferedIssuer)
		for _, a := range l.accesses {
			t0 := time.Now()
			pf.Train(a)
			tT += time.Since(t0)
			t0 = time.Now()
			if issuer != nil {
				buf = issuer.IssueTo(a, buf[:0])
			} else {
				buf = pf.Issue(a)
			}
			tI += time.Since(t0)
		}
		n += uint64(len(l.accesses))
	}
	return perCall(tT, n, clk), perCall(tI, n, clk), nil
}

// dramReq is one request the cache replay sends to DRAM.
type dramReq struct {
	block                       addr.BlockNum
	arrival                     uint64
	write, writeAlloc, prefetch bool
}

// replayCache runs one unit's recorded demand accesses and proposed
// prefetches through a fresh cache slice and returns the cache time per
// access together with the DRAM requests the replay produced: demand fills
// for misses, prefetch fills for candidates not resident, and writebacks of
// dirty victims.
func replayCache(l *accessLog, ccfg cache.Config, hitLat uint64) (time.Duration, []dramReq) {
	c := cache.New(ccfg)
	reqs := make([]dramReq, 0, 2*len(l.accesses)+len(l.cands))
	writeback := func(ev cache.EvictInfo, arrival uint64) {
		if ev.Valid && ev.Dirty {
			reqs = append(reqs, dramReq{block: ev.Block, arrival: arrival, write: true})
		}
	}
	next := 0
	t0 := time.Now()
	for i, a := range l.accesses {
		arrival := a.Cycle + hitLat
		if hit, _, _ := c.AccessOrigin(a.Block, a.Write); !hit {
			reqs = append(reqs, dramReq{block: a.Block, arrival: arrival, writeAlloc: a.Write})
			writeback(c.Fill(a.Block, false, a.Write), arrival)
		}
		for _, b := range l.cands[next : next+int(l.nCands[i])] {
			if !c.Contains(b) {
				reqs = append(reqs, dramReq{block: b, arrival: arrival, prefetch: true})
				writeback(c.Fill(b, true, false), arrival)
			}
		}
		next += int(l.nCands[i])
	}
	return time.Since(t0), reqs
}

// replayDRAM serves a request stream on a fresh controller, flushing at the
// end, and returns the time it took.
func replayDRAM(reqs []dramReq, cfg dram.Config) (time.Duration, error) {
	ctl := dram.NewController(cfg)
	t0 := time.Now()
	for _, q := range reqs {
		r := ctl.NewRequest()
		r.Block, r.Arrival = q.block, q.arrival
		r.Write, r.WriteAlloc, r.Prefetch = q.write, q.writeAlloc, q.prefetch
		if err := ctl.Enqueue(r); err != nil {
			return 0, fmt.Errorf("dram replay: %w", err)
		}
	}
	ctl.Flush()
	return time.Since(t0), nil
}

// memLayers is one cache + DRAM replay over every recorded unit.
type memLayers struct {
	cacheNsPerAccess, dramNsPerRequest float64
	accesses, requests                 uint64
}

func replayMemory(logs []*accessLog) (memLayers, error) {
	var out memLayers
	cfg := sim.DefaultConfig()
	var cacheT, dramT time.Duration
	for u, l := range logs {
		ccfg := cfg.Cache
		ccfg.Seed += int64(u) // the engine's per-unit seeding at one sub-shard
		ct, reqs := replayCache(l, ccfg, cfg.SCHitLatency)
		dt, err := replayDRAM(reqs, cfg.DRAM)
		if err != nil {
			return out, err
		}
		cacheT += ct
		dramT += dt
		out.accesses += uint64(len(l.accesses))
		out.requests += uint64(len(reqs))
	}
	if out.accesses > 0 {
		out.cacheNsPerAccess = float64(cacheT) / float64(out.accesses)
	}
	if out.requests > 0 {
		out.dramNsPerRequest = float64(dramT) / float64(out.requests)
	}
	return out, nil
}
