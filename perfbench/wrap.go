package main

// Timing wrappers around the engine's two injection points: the
// trace.Stream handed to RunWarmStream and the per-channel prefetcher built
// by sim.Config.NewPrefetcher. Both are transparent: the engine discovers
// optional interfaces by type assertion (trace.Sized and trace.Chunker on
// streams; Origin, IssueTo and SetEventSink on prefetchers), so a wrapper
// exposes exactly the optional methods its inner value has. (The engine
// also asserts SetTelemetry, which is not forwarded: every benchmark run
// has telemetry off.) wrap_test.go pins traced and untraced reports
// identical.

import (
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// timedStream times every chunk the engine pulls from the trace source.
// The source's cost is taken as the median ns per record over chunks, so a
// chunk during which the goroutine was descheduled does not skew it.
type timedStream struct {
	inner   trace.Stream
	perRec  []float64 // ns per record of each chunk
	records int64
}

func (s *timedStream) Next() (trace.Record, bool) {
	rec, ok := s.inner.Next()
	if ok {
		s.records++
	}
	return rec, ok
}

// NextChunk is always offered: trace.ReadChunk falls back to per-record
// Next calls for a non-Chunker source, which is what this does too.
func (s *timedStream) NextChunk(dst []trace.Record) int {
	t0 := time.Now()
	n := trace.ReadChunk(s.inner, dst)
	if n > 0 {
		s.perRec = append(s.perRec, float64(time.Since(t0))/float64(n))
		s.records += int64(n)
	}
	return n
}

// ns returns the estimated time spent producing the records pulled so far.
func (s *timedStream) ns() float64 { return median(s.perRec) * float64(s.records) }

func (s *timedStream) Err() error { return s.inner.Err() }

// Len forwards trace.Sized; an unsized source reports -1, which is what
// trace.StreamLen reports for it too.
func (s *timedStream) Len() int { return trace.StreamLen(s.inner) }

// accessLog records the prefetch.Access stream one engine unit trains on,
// with the candidates its prefetcher proposed for each access, up to a
// record limit. The layer replays (layers.go) run it through standalone
// SLP, TLP, cache and DRAM instances.
type accessLog struct {
	limit    int
	accesses []prefetch.Access
	nCands   []uint8 // candidates proposed for accesses[i], capped at 255
	cands    []addr.BlockNum
}

func (l *accessLog) full() bool { return len(l.accesses) >= l.limit }

// pfTimer wraps one unit's prefetcher. A pseudo-random one call in
// sampleEvery is timed, so the clock costs little next to the calls it
// measures; a fixed stride could alias with periodic structure in the
// generated traces. A timed call longer than interrupted was descheduled
// (the runtime preempts goroutines for GC and scheduling) and is left out.
// Counts cover every call.
type pfTimer struct {
	inner  prefetch.Prefetcher
	issuer prefetch.BufferedIssuer // nil when inner lacks IssueTo
	log    *accessLog              // nil when this unit is not recorded
	logged bool                    // the last Train was appended to log

	rng                  uint64 // xorshift state choosing the timed calls
	trains, issues       uint64
	candidates           uint64
	trainNs, issueNs     int64
	trainTimed, issTimed uint64
}

const (
	sampleEvery = 8
	interrupted = 50 * time.Microsecond
)

// sample reports whether to time the next call.
func (p *pfTimer) sample() bool {
	if p.rng == 0 {
		p.rng = 0x9e3779b97f4a7c15
	}
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng%sampleEvery == 0
}

func (p *pfTimer) Name() string     { return p.inner.Name() }
func (p *pfTimer) StorageBits() int { return p.inner.StorageBits() }
func (p *pfTimer) Reset()           { p.inner.Reset() }

func (p *pfTimer) Train(a prefetch.Access) {
	p.trains++
	p.logged = p.log != nil && !p.log.full()
	if p.logged {
		p.log.accesses = append(p.log.accesses, a)
		p.log.nCands = append(p.log.nCands, 0)
	}
	if !p.sample() {
		p.inner.Train(a)
		return
	}
	t0 := time.Now()
	p.inner.Train(a)
	if d := time.Since(t0); d < interrupted {
		p.trainNs += int64(d)
		p.trainTimed++
	}
}

func (p *pfTimer) Issue(a prefetch.Access) []addr.BlockNum {
	return p.IssueTo(a, nil)
}

// IssueTo is always offered; for an inner prefetcher without it, it appends
// Issue's result, which is the slice the engine would have used.
func (p *pfTimer) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	p.issues++
	base := len(dst)
	timed := p.sample()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if p.issuer != nil {
		dst = p.issuer.IssueTo(a, dst)
	} else {
		dst = append(dst, p.inner.Issue(a)...)
	}
	if d := time.Since(t0); timed && d < interrupted {
		p.issueNs += int64(d)
		p.issTimed++
	}
	n := len(dst) - base
	p.candidates += uint64(n)
	// The engine calls IssueTo right after Train for the same access.
	if p.logged && n > 0 {
		n = min(n, 255)
		p.log.nCands[len(p.log.nCands)-1] = uint8(n)
		p.log.cands = append(p.log.cands, dst[base:base+n]...)
	}
	return dst
}

// originTracker and eventSinkSetter mirror the optional interfaces the
// engine type-asserts on a prefetcher.
type originTracker interface{ Origin() string }
type eventSinkSetter interface{ SetEventSink(events.Sink) }

type pfTimerOrigin struct{ *pfTimer }

func (p pfTimerOrigin) Origin() string { return p.inner.(originTracker).Origin() }

type pfTimerSink struct{ *pfTimer }

func (p pfTimerSink) SetEventSink(s events.Sink) { p.inner.(eventSinkSetter).SetEventSink(s) }

type pfTimerOriginSink struct{ *pfTimer }

func (p pfTimerOriginSink) Origin() string { return p.inner.(originTracker).Origin() }
func (p pfTimerOriginSink) SetEventSink(s events.Sink) {
	p.inner.(eventSinkSetter).SetEventSink(s)
}

// wrapPrefetcher returns t behind a value with exactly the optional
// interfaces t.inner has.
func wrapPrefetcher(t *pfTimer) prefetch.Prefetcher {
	t.issuer, _ = t.inner.(prefetch.BufferedIssuer)
	_, origin := t.inner.(originTracker)
	_, sink := t.inner.(eventSinkSetter)
	switch {
	case origin && sink:
		return pfTimerOriginSink{t}
	case origin:
		return pfTimerOrigin{t}
	case sink:
		return pfTimerSink{t}
	}
	return t
}
