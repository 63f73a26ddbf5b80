package trace

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingStream counts the records its consumers pulled from it, and
// optionally stops with err after failAt records.
type countingStream struct {
	s      *SliceStream
	pulled atomic.Int64
	failAt int
	err    error
}

func (c *countingStream) Next() (Record, bool) {
	var one [1]Record
	if c.NextChunk(one[:]) == 0 {
		return Record{}, false
	}
	return one[0], true
}

func (c *countingStream) NextChunk(dst []Record) int {
	if c.err != nil {
		if left := c.failAt - int(c.pulled.Load()); left < len(dst) {
			dst = dst[:left]
		}
	}
	n := c.s.NextChunk(dst)
	c.pulled.Add(int64(n))
	return n
}

func (c *countingStream) Err() error {
	if c.err != nil && int(c.pulled.Load()) == c.failAt {
		return c.err
	}
	return nil
}

func (c *countingStream) Len() int { return c.s.Len() }

// drain reads s to the end in chunks of the given size, checking at every
// step that Len reports exactly the records still to come.
func drain(t *testing.T, s *TeeStream, chunk, total int) (Trace, error) {
	var got Trace
	buf := make([]Record, chunk)
	for {
		if l := s.Len(); l != total-len(got) {
			t.Errorf("Len = %d after %d records, want %d", l, len(got), total-len(got))
		}
		n := ReadChunk(s, buf)
		if n == 0 {
			return got, s.Err()
		}
		got = append(got, buf[:n]...)
	}
}

// TestTeeFullSequence: every consumer of a tee sees the whole source, in
// order, whatever its read size, with an exact Len throughout, while the
// source is read exactly once.
func TestTeeFullSequence(t *testing.T) {
	const n = 10*ChunkSize + 123
	tr := streamTrace(n)
	src := &countingStream{s: tr.Stream()}
	cons := Tee(src, 4)
	sizes := []int{ChunkSize, 1000, 7, 3 * ChunkSize}
	var wg sync.WaitGroup
	for i, c := range cons {
		wg.Add(1)
		go func(i int, c *TeeStream) {
			defer wg.Done()
			defer c.Close()
			got, err := drain(t, c, sizes[i], n)
			if err != nil {
				t.Errorf("consumer %d: err %v", i, err)
			}
			if len(got) != n {
				t.Errorf("consumer %d: %d records, want %d", i, len(got), n)
				return
			}
			for k := range got {
				if got[k] != tr[k] {
					t.Errorf("consumer %d: record %d differs", i, k)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	if p := src.pulled.Load(); p != n {
		t.Fatalf("source read %d records for %d consumers, want %d", p, len(cons), n)
	}
}

// TestTeeLagBound: with one consumer idle but open, the other can read at
// most teeWindow chunks before it waits; closing the idle consumer releases
// it to the end of the source.
func TestTeeLagBound(t *testing.T) {
	const n = 20 * ChunkSize
	tr := streamTrace(n)
	src := &countingStream{s: tr.Stream()}
	cons := Tee(src, 2)
	var read atomic.Int64
	done := make(chan Trace)
	go func() {
		var got Trace
		buf := make([]Record, ChunkSize)
		for {
			k := ReadChunk(cons[0], buf)
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
			read.Add(int64(k))
		}
		done <- got
	}()
	limit := int64(teeWindow * ChunkSize)
	deadline := time.Now().Add(5 * time.Second)
	for read.Load() < limit {
		if time.Now().After(deadline) {
			t.Fatalf("leader stalled at %d records, before the %d-record window", read.Load(), limit)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room to overrun, were the bound broken
	if r, p := read.Load(), src.pulled.Load(); r > limit || p > limit {
		t.Fatalf("leader read %d records and the source gave %d with the other consumer at 0; bound is %d", r, p, limit)
	}
	cons[1].Close()
	select {
	case got := <-done:
		if len(got) != n {
			t.Fatalf("leader read %d records after release, want %d", len(got), n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing the idle consumer did not release the leader")
	}
	if k := ReadChunk(cons[1], make([]Record, 8)); k != 0 {
		t.Fatalf("closed consumer still delivers records (%d)", k)
	}
}

// TestTeeSourceError: a source that fails mid-chunk stops every consumer
// after the same records a solo read delivers, each with the source's error.
func TestTeeSourceError(t *testing.T) {
	const n, failAt = 6 * ChunkSize, 2*ChunkSize + 17
	boom := errors.New("boom")
	tr := streamTrace(n)
	cons := Tee(&countingStream{s: tr.Stream(), failAt: failAt, err: boom}, 3)
	var wg sync.WaitGroup
	for i, c := range cons {
		wg.Add(1)
		go func(i int, c *TeeStream) {
			defer wg.Done()
			var got int
			buf := make([]Record, 1000)
			for {
				k := ReadChunk(c, buf)
				if k == 0 {
					break
				}
				got += k
			}
			if got != failAt || !errors.Is(c.Err(), boom) {
				t.Errorf("consumer %d: %d records, err %v; want %d, %v", i, got, c.Err(), failAt, boom)
			}
		}(i, c)
	}
	wg.Wait()
}

// TestTeeSourcePanic: a panicking source panics in the consumer that pulled
// it and ends every other consumer with an error instead of wedging them.
func TestTeeSourcePanic(t *testing.T) {
	cons := Tee(panicStream{}, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("source panic swallowed")
			}
			cons[0].Close()
		}()
		ReadChunk(cons[0], make([]Record, 8))
	}()
	if k := ReadChunk(cons[1], make([]Record, 8)); k != 0 || cons[1].Err() == nil {
		t.Fatalf("other consumer after a source panic: %d records, err %v", k, cons[1].Err())
	}
}

type panicStream struct{}

func (panicStream) Next() (Record, bool) { panic("source fault") }
func (panicStream) Err() error           { return nil }

// TestTeeUnsized: an unsized source leaves every consumer unsized.
func TestTeeUnsized(t *testing.T) {
	cons := Tee(panicStream{}, 2)
	for _, c := range cons {
		if c.Len() != -1 {
			t.Fatalf("consumer of an unsized source reports Len %d", c.Len())
		}
	}
}
