package core

import (
	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/events"
	"repro/internal/hashidx"
	"repro/internal/prefetch"
)

// TLPConfig parameterises the transfer-learning sub-prefetcher.
type TLPConfig struct {
	RPTEntries    int    // Recent Page Table entries (paper: 128)
	DistThreshold uint64 // max page-number distance for a learnable neighbour (paper: 64)
	MinCommon     int    // min common bits before a neighbour pattern is trusted (paper example: 4)
}

// DefaultTLPConfig matches Section 4.2.
func DefaultTLPConfig() TLPConfig {
	return TLPConfig{RPTEntries: 128, DistThreshold: 64, MinCommon: 4}
}

// TLP is the transfer-learning (inter-page) sub-prefetcher for one channel.
//
// Its Recent Page Table (RPT) keeps the footprints of recently observed
// pages. In hardware each entry carries one "Ref" bit per other entry, set
// when the two pages are close in page-number space (within DistThreshold).
// When a page with little history of its own misses, TLP finds its most
// similar flagged neighbour — largest count of common footprint bits, at
// least MinCommon — and prefetches the blocks the neighbour accessed that
// this page has not.
//
// Note: the paper's prose inverts the Ref polarity in one sentence
// ("difference ... larger than a threshold" → set 1); every other part of
// Section 4 requires neighbours to be close, so Ref here means "within the
// distance threshold" (see DESIGN.md).
//
// Software layout: the RPT is three struct-of-arrays lanes indexed by slot.
// Entries are only ever invalidated all at once (Reset), so the valid slots
// are always the prefix [0, n). A Ref bit is a pure function of two
// resident pages, so it is not stored: BestNeighbor derives it with one
// range test per slot, and an allocation does no Ref work at all.
// StorageBits still counts the hardware's Ref matrix.
type TLP struct {
	cfg   TLPConfig
	pages []addr.PageNum
	bits  []bitmap.Seg16
	last  []uint64 // cycle of the last access, the LRU order
	n     int      // valid slots: [0, n)
	// idx is the page → RPT-slot index; open addressing keeps the lookup
	// allocation-free under entry churn.
	idx *hashidx.U64

	issues uint64

	// sink receives neighbour-match events; nil when tracing is disabled.
	sink events.Sink
}

// SetEventSink installs the decision-event sink (nil disables tracing).
func (t *TLP) SetEventSink(sk events.Sink) { t.sink = sk }

// NewTLP builds a TLP instance; zero fields take DefaultTLPConfig's values.
func NewTLP(cfg TLPConfig) *TLP {
	def := DefaultTLPConfig()
	if cfg.RPTEntries <= 0 {
		cfg.RPTEntries = def.RPTEntries
	}
	if cfg.DistThreshold == 0 {
		cfg.DistThreshold = def.DistThreshold
	}
	if cfg.MinCommon <= 0 {
		cfg.MinCommon = def.MinCommon
	}
	n := cfg.RPTEntries
	return &TLP{
		cfg:   cfg,
		pages: make([]addr.PageNum, n),
		bits:  make([]bitmap.Seg16, n),
		last:  make([]uint64, n),
		idx:   hashidx.New(n),
	}
}

// Name implements prefetch.Prefetcher.
func (t *TLP) Name() string { return "tlp" }

// Reset implements prefetch.Prefetcher. Slots past n are never read, so
// emptying the valid prefix is enough.
func (t *TLP) Reset() {
	t.n = 0
	t.idx.Reset()
	t.issues = 0
}

// Train implements prefetch.Prefetcher (the TLP learning phase): record the
// block in the page's RPT footprint, allocating an entry on first sight —
// the next free slot, or else the least recently used one.
func (t *TLP) Train(a prefetch.Access) {
	p := a.Page()
	off := a.Block.SegOffset()
	if i, ok := t.idx.Get(uint64(p)); ok {
		t.bits[i] = t.bits[i].Set(off)
		t.last[i] = a.Cycle
		return
	}
	i := t.n
	if i < len(t.pages) {
		t.n++
	} else {
		i = lruSlot(t.last)
		t.idx.Delete(uint64(t.pages[i]))
	}
	t.pages[i] = p
	t.bits[i] = bitmap.Seg16(0).Set(off)
	t.last[i] = a.Cycle
	t.idx.Put(uint64(p), int32(i))
}

// lruSlot returns the slot with the smallest stamp, the lowest slot on ties.
// The minimum comes from four interleaved running minima, so the compares
// do not wait on each other; a second pass finds its first slot.
func lruSlot(last []uint64) int {
	m0, m1, m2, m3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	rest := last
	for ; len(rest) >= 4; rest = rest[4:] {
		m0, m1, m2, m3 = min(m0, rest[0]), min(m1, rest[1]), min(m2, rest[2]), min(m3, rest[3])
	}
	for _, c := range rest {
		m0 = min(m0, c)
	}
	least := min(m0, m1, m2, m3)
	for i, c := range last {
		if c == least {
			return i
		}
	}
	return 0
}

// BestNeighbor returns the most similar flagged neighbour entry of page p
// and the blocks it would transfer (neighbour minus self), or ok=false.
// Slot j's Ref bit is |pages[j] − p| ≤ DistThreshold, tested as one
// unsigned compare against the window [lo, lo+span], which saturates at
// both ends of the page space; p's own slot is excluded explicitly.
func (t *TLP) BestNeighbor(p addr.PageNum) (neighbor addr.PageNum, transfer bitmap.Seg16, ok bool) {
	i, exists := t.idx.Get(uint64(p))
	if !exists {
		return 0, 0, false
	}
	thr := addr.PageNum(t.cfg.DistThreshold)
	lo, span := p-min(p, thr), min(p, thr)+min(^p, thr)
	pages, fps := t.pages[:t.n], t.bits[:t.n]
	self := fps[i]
	best, bestCommon := -1, t.cfg.MinCommon-1
	for j, q := range pages {
		if q-lo > span || j == int(i) {
			continue
		}
		if c := self.Common(fps[j]); c > bestCommon {
			best, bestCommon = j, c
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	tr := fps[best].Minus(self)
	if tr == 0 {
		return 0, 0, false
	}
	return pages[best], tr, true
}

// Issue implements prefetch.Prefetcher (the TLP issuing phase): on a demand
// miss, transfer the best neighbour's surplus footprint onto this page.
func (t *TLP) Issue(a prefetch.Access) []addr.BlockNum {
	return t.IssueTo(a, nil)
}

// IssueTo implements prefetch.BufferedIssuer: Issue appending into the
// caller's buffer, iterating the transfer bitmap directly (no Offsets
// slice) so a warm TLP issues without allocating.
func (t *TLP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	p := a.Page()
	neighbor, transfer, ok := t.BestNeighbor(p)
	if !ok {
		return dst
	}
	dst = appendBlocks(dst, p, a.Block.Channel(), transfer)
	t.issues++
	if t.sink != nil {
		t.sink.Emit(events.Event{
			Kind: events.KindTLPNeighbor, Cycle: a.Cycle, Block: a.Block,
			Aux: uint64(neighbor), Origin: events.OriginTLP, N: uint16(transfer.Count()),
		})
	}
	return dst
}

// Issues returns the number of Issue calls that produced prefetches.
func (t *TLP) Issues() uint64 { return t.issues }

// StorageBits implements prefetch.Prefetcher: each RPT entry holds a page
// tag (36 b), a 16-bit bitmap, a 16-bit timestamp, a valid bit and N−1
// useful Ref bits (Section 4.2) — the hardware layout, which stores the Ref
// bits the software derives.
func (t *TLP) StorageBits() int {
	n := len(t.pages)
	return n * (36 + 16 + 16 + 1 + (n - 1))
}
