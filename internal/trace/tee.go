package trace

import (
	"fmt"
	"sync"
)

// teeWindow bounds how far the fastest consumer of a Tee may run ahead of
// the slowest: a tee buffers at most this many chunks of ChunkSize records,
// so n engines sharing one source cost O(teeWindow × ChunkSize) memory on
// top of the source whatever the trace length. A few chunks absorb the
// scheduling jitter between consumers; the bound is a constant because
// nothing downstream depends on its value.
const teeWindow = 4

// Tee fans one source out to n consumers. Every consumer sees the full
// record sequence of src and reports an exact Len (the source's length at
// Tee time minus what that consumer has read), so each can drive its own
// engine with its own warmup boundary. The source is pulled once, by
// whichever consumer is furthest ahead; that consumer waits when it would
// run more than teeWindow chunks ahead of the slowest open consumer. A
// source error (or early end) reaches every consumer after the same records
// a solo read would have delivered.
//
// Each consumer must be drained or closed: an abandoned open consumer holds
// the others back once they are teeWindow chunks ahead of it. Consumers are
// independent of each other and may be used from different goroutines, but
// each one, like any Stream, from one goroutine at a time.
func Tee(src Stream, n int) []*TeeStream {
	t := &tee{src: src, total: StreamLen(src)}
	t.cond.L = &t.mu
	out := make([]*TeeStream, n)
	for i := range out {
		out[i] = &TeeStream{t: t}
	}
	t.cons = out
	return out
}

// tee is the state one source's consumers share. Chunk i lives in ring slot
// i % teeWindow from the moment it is read until every open consumer has
// moved past it.
type tee struct {
	src   Stream
	total int // source length at Tee time; negative when unknown

	mu      sync.Mutex
	cond    sync.Cond
	ring    [teeWindow][]Record
	read    int   // chunks read from src so far
	reading bool  // a consumer is filling chunk read, outside mu
	done    bool  // src has ended; no chunk past read will appear
	err     error // src's error once done
	cons    []*TeeStream
}

// TeeStream is one consumer of a Tee. It implements Stream, Chunker and
// Sized.
type TeeStream struct {
	t      *tee
	chunk  int // the chunk holding this consumer's next record
	off    int // offset of that record inside the chunk
	pos    int // records delivered
	closed bool
	err    error // the source's error, once this consumer reached its end
}

// minChunk returns the lowest chunk any open consumer still reads. Called
// with mu held by an open consumer, so some consumer is always open.
func (t *tee) minChunk() int {
	m := t.read
	for _, c := range t.cons {
		if !c.closed && c.chunk < m {
			m = c.chunk
		}
	}
	return m
}

// fill reads the next chunk of src into slot. It runs outside mu: no other
// consumer reads slot while reading is set. A panicking source ends the
// tee with an error for every other consumer before the panic propagates to
// the consumer that pulled it.
func (t *tee) fill(slot []Record) (n int) {
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			t.reading, t.done = false, true
			t.err = fmt.Errorf("trace: tee source panic: %v", r)
			t.cond.Broadcast()
			t.mu.Unlock()
			panic(r)
		}
	}()
	for n < len(slot) {
		k := ReadChunk(t.src, slot[n:])
		if k == 0 {
			break
		}
		n += k
	}
	return n
}

// NextChunk implements Chunker.
func (c *TeeStream) NextChunk(dst []Record) int {
	if len(dst) == 0 {
		return 0
	}
	t := c.t
	t.mu.Lock()
	for c.chunk == t.read {
		switch {
		case c.closed:
			t.mu.Unlock()
			return 0
		case t.done:
			c.err = t.err
			t.mu.Unlock()
			return 0
		case t.reading || t.read-t.minChunk() >= teeWindow:
			// Another consumer is reading this chunk, or its slot still
			// holds a chunk the slowest open consumer has not finished.
			t.cond.Wait()
			continue
		}
		t.reading = true
		slot := t.ring[t.read%teeWindow]
		if slot == nil {
			slot = make([]Record, ChunkSize)
		}
		t.mu.Unlock()
		n := t.fill(slot[:ChunkSize])
		t.mu.Lock()
		t.reading = false
		if n > 0 {
			t.ring[t.read%teeWindow] = slot[:n]
			t.read++
		}
		if n < ChunkSize {
			t.done, t.err = true, t.src.Err()
		}
		t.cond.Broadcast()
	}
	if c.closed {
		t.mu.Unlock()
		return 0
	}
	// The chunk cannot be overwritten while this consumer sits in it, so
	// the copy runs outside mu.
	chunk := t.ring[c.chunk%teeWindow]
	t.mu.Unlock()
	n := copy(dst, chunk[c.off:])
	c.pos += n
	if c.off += n; c.off == len(chunk) {
		t.mu.Lock()
		c.chunk, c.off = c.chunk+1, 0
		t.cond.Broadcast()
		t.mu.Unlock()
	}
	return n
}

// Next implements Stream.
func (c *TeeStream) Next() (Record, bool) {
	var one [1]Record
	if c.NextChunk(one[:]) == 0 {
		return Record{}, false
	}
	return one[0], true
}

// Err implements Stream: the source's error, once this consumer has read
// every record the source delivered.
func (c *TeeStream) Err() error { return c.err }

// Len implements Sized: the records this consumer has left, or -1 when the
// source's length is unknown.
func (c *TeeStream) Len() int {
	if n := c.t.total - c.pos; c.t.total >= 0 && n >= 0 {
		return n
	}
	return -1
}

// Close gives up the consumer's claim on the source: the other consumers
// no longer wait for it, and its later reads return nothing. Closing twice
// is harmless.
func (c *TeeStream) Close() error {
	t := c.t
	t.mu.Lock()
	c.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	return nil
}
