package sim

// This file holds the worker side of the run loop (consumeStream in
// stream.go). The paper's system is four independent SC slices, one per
// LPDDR4 channel, and every trace record touches exactly one execution
// unit's cache, prefetcher, queue and DRAM controller. So a run is one
// splitter walking the global record stream, and the only choice is where
// each unit's records are stepped:
//
//   - inline (Config.ParallelChannels off, or a single unit): the splitter
//     steps every record itself, through Engine.Step. There are no
//     goroutines, queues or pools, and a nil *workers stands for this mode:
//     its pause and resume are no-ops.
//   - on workers: one goroutine per unit, fed its records through a bounded
//     queue of chunks as they arrive, so a run needs O(chunk) memory per
//     unit regardless of trace length.
//
// Determinism contract (see docs/PERFORMANCE.md): a unit's state after its
// records up to global position i is the same in both modes, because units
// share nothing. The only cross-unit coupling is the metrics sampler, whose
// window boundaries depend on the global record stream. The splitter sees
// that order and asks metrics.Sampler.Due itself; at a window (or warmup)
// boundary it pauses every worker at a barrier, takes the merged snapshot
// and resumes them. Reports are bit-identical in both modes.
//
// Failure contract (docs/PERFORMANCE.md, "Failure model"): a worker that
// errors — or panics; panics are recovered into errors — never stops
// draining its queue, so the splitter can never block pushing into a dead
// worker's bounded queue and barriers always complete. The first failure
// trips a shared abort latch; the splitter stops reading the stream at the
// next chunk boundary, and close flushes what it already read (so an even
// earlier fault buffered for another unit is still discovered), closes the
// queues and joins every worker. The run's error is attributed to the
// earliest failing global record, exactly where inline stepping stops.

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// parcelQueueDepth bounds each unit's queue of in-flight chunks. With the
// building buffer and the chunk a worker is processing, a unit holds at
// most parcelQueueDepth+2 chunks at once — the memory bound of the worker
// mode (≈ 6 × 96 KB per unit).
const parcelQueueDepth = 4

// parcelBuf is one recycled per-unit chunk: the records plus their global
// trace positions (used to attribute an error to the earliest failing
// record).
type parcelBuf struct {
	recs []trace.Record
	idx  []int64
}

// streamBarrier synchronises all workers with the splitter at a sampler
// window (or warmup) boundary: workers signal arrival and park until the
// splitter has taken its merged snapshot and closes resume.
type streamBarrier struct {
	arrived sync.WaitGroup
	resume  chan struct{}
}

// parcel is one message on a worker's queue: either a chunk of records or
// a barrier.
type parcel struct {
	buf     *parcelBuf
	barrier *streamBarrier
}

// unitErr is one worker's failure and the global record it is attributed to.
type unitErr struct {
	err    error
	global int64
}

// workers steps each unit's records on its own goroutine. A nil *workers is
// the inline mode.
type workers struct {
	queues  []chan parcel
	bufs    []*parcelBuf // the chunk being built, per unit
	errs    []unitErr    // each worker writes only its slot
	wg      sync.WaitGroup
	abort   chan struct{} // closed once, on the first worker failure
	trip    sync.Once
	pool    sync.Pool
	barrier *streamBarrier // the barrier the workers are parked at, between pause and resume
}

// stepAll drives every record of b through the unit. A step error — or a
// panic out of the unit's cache, prefetcher or controller, which is
// recovered here so one poisoned component cannot wedge the whole pipeline
// — is attributed to the global position of the record being processed.
func (cs *channelState) stepAll(b *parcelBuf) (at int64, err error) {
	k := 0
	defer func() {
		if r := recover(); r != nil {
			at = b.idx[k]
			err = fmt.Errorf("sim: panic at record %d: %v", at, r)
		}
	}()
	for k = range b.recs {
		if e := cs.step(b.recs[k]); e != nil {
			return b.idx[k], e
		}
	}
	return 0, nil
}

// startWorkers launches one worker goroutine per unit.
func (e *Engine) startWorkers() *workers {
	n := len(e.units)
	w := &workers{
		queues: make([]chan parcel, n),
		bufs:   make([]*parcelBuf, n),
		errs:   make([]unitErr, n),
		abort:  make(chan struct{}),
	}
	w.pool.New = func() any {
		return &parcelBuf{
			recs: make([]trace.Record, 0, trace.ChunkSize),
			idx:  make([]int64, 0, trace.ChunkSize),
		}
	}
	for u, cs := range e.units {
		w.queues[u] = make(chan parcel, parcelQueueDepth)
		w.bufs[u] = w.pool.Get().(*parcelBuf)
		w.wg.Add(1)
		go w.work(u, cs)
	}
	return w
}

// work is unit u's worker loop. It always runs to queue close: after a
// failure it keeps draining chunks (discarding them) and keeps honouring
// barriers, so the splitter never blocks pushing into this queue and pause
// never deadlocks.
func (w *workers) work(u int, cs *channelState) {
	defer w.wg.Done()
	failed := false
	for p := range w.queues[u] {
		if p.barrier != nil {
			p.barrier.arrived.Done()
			<-p.barrier.resume
			continue
		}
		if !failed {
			if at, err := cs.stepAll(p.buf); err != nil {
				w.errs[u] = unitErr{err: err, global: at}
				failed = true
				w.trip.Do(func() { close(w.abort) })
			}
		}
		p.buf.recs = p.buf.recs[:0]
		p.buf.idx = p.buf.idx[:0]
		w.pool.Put(p.buf)
	}
}

// push appends the record at global position i to unit u's chunk, handing
// the chunk to the worker once full.
func (w *workers) push(u int, rec trace.Record, i int64) {
	b := w.bufs[u]
	b.recs = append(b.recs, rec)
	b.idx = append(b.idx, i)
	if len(b.recs) == trace.ChunkSize {
		w.flush(u)
	}
}

func (w *workers) flush(u int) {
	if len(w.bufs[u].recs) == 0 {
		return
	}
	w.queues[u] <- parcel{buf: w.bufs[u]}
	w.bufs[u] = w.pool.Get().(*parcelBuf)
}

// failed is closed on the first worker failure; nil (never ready) inline.
func (w *workers) failed() <-chan struct{} {
	if w == nil {
		return nil
	}
	return w.abort
}

// pause flushes every unit and parks all workers at a barrier until
// resume. In between, the splitter may read and mutate engine state freely:
// WaitGroup arrival orders every prior step before it, and resume orders it
// before every later step.
func (w *workers) pause() {
	if w == nil {
		return
	}
	b := &streamBarrier{resume: make(chan struct{})}
	b.arrived.Add(len(w.queues))
	for u := range w.queues {
		w.flush(u)
		w.queues[u] <- parcel{barrier: b}
	}
	b.arrived.Wait()
	w.barrier = b
}

// resume releases the workers parked by pause.
func (w *workers) resume() {
	if w == nil || w.barrier == nil {
		return
	}
	close(w.barrier.resume)
	w.barrier = nil
}

// close releases a pending barrier, flushes everything already read — even
// after a failure: workers keep draining, the backlog is bounded by the
// queue depth, and a fault at an earlier global position still buffered
// for a healthy unit is found this way — closes the queues, joins every
// worker and returns the earliest failure, if any. Inline it does nothing.
func (w *workers) close() (int64, error) {
	if w == nil {
		return 0, nil
	}
	w.resume()
	for u := range w.queues {
		w.flush(u)
		close(w.queues[u])
	}
	w.wg.Wait()
	var first *unitErr
	for u := range w.errs {
		if ue := &w.errs[u]; ue.err != nil && (first == nil || ue.global < first.global) {
			first = ue
		}
	}
	if first == nil {
		return 0, nil
	}
	return first.global, first.err
}
