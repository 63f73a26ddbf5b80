package core

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/prefetch"
)

func benchAccesses(n int) []prefetch.Access {
	rng := rand.New(rand.NewSource(1))
	out := make([]prefetch.Access, n)
	cycle := uint64(0)
	for i := range out {
		p := addr.PageNum(rng.Intn(4096))
		out[i] = prefetch.Access{
			Block: p.Block(addr.OffsetOf(0, rng.Intn(16))),
			Cycle: cycle,
			Miss:  rng.Intn(3) != 0,
		}
		cycle += uint64(rng.Intn(60))
	}
	return out
}

// benchTrainIssue times one Train plus one IssueTo per access, reusing one
// candidate buffer like the engine does, so a warm prefetcher's steady
// state is allocation-free (BENCH_baseline.json pins allocs/op at 0).
func benchTrainIssue(b *testing.B, pf interface {
	Train(prefetch.Access)
	IssueTo(prefetch.Access, []addr.BlockNum) []addr.BlockNum
}) {
	accs := benchAccesses(1 << 16)
	dst := make([]addr.BlockNum, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := accs[i&(len(accs)-1)]
		pf.Train(a)
		dst = pf.IssueTo(a, dst[:0])
	}
}

// BenchmarkSLPTrainIssue measures the per-access cost of the intra-page
// sub-prefetcher.
func BenchmarkSLPTrainIssue(b *testing.B) { benchTrainIssue(b, NewSLP(DefaultSLPConfig())) }

// BenchmarkTLPTrainIssue measures the per-access cost of the inter-page
// sub-prefetcher (dominated by the 128-entry RPT bookkeeping).
func BenchmarkTLPTrainIssue(b *testing.B) { benchTrainIssue(b, NewTLP(DefaultTLPConfig())) }

// BenchmarkPlanariaTrainIssue measures the full composite prefetcher.
func BenchmarkPlanariaTrainIssue(b *testing.B) { benchTrainIssue(b, New(DefaultConfig())) }

// bestNeighborSink keeps BenchmarkTLPBestNeighbor's results live.
var bestNeighborSink int

// BenchmarkTLPBestNeighbor times the neighbour search alone over a warm,
// full 128-entry RPT holding 128 consecutive pages: every page has up to
// 128 resident neighbours within the 64-page threshold, so about three
// quarters of the slots pass the Ref test and reach the popcount.
func BenchmarkTLPBestNeighbor(b *testing.B) {
	cfg := DefaultTLPConfig()
	t := NewTLP(cfg)
	rng := rand.New(rand.NewSource(1))
	pages := make([]addr.PageNum, cfg.RPTEntries)
	for i := range pages {
		pages[i] = addr.PageNum(1<<20 + i)
		for k := 0; k < 6; k++ {
			t.Train(prefetch.Access{Block: pages[i].Block(addr.OffsetOf(0, rng.Intn(16))), Cycle: uint64(i)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := t.BestNeighbor(pages[i&(len(pages)-1)]); ok {
			bestNeighborSink++
		}
	}
}
