package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/hashidx"
	"repro/internal/prefetch"
)

// This file pins the struct-of-arrays TLP and SLP against refTLP and refSLP,
// ports of the array-of-structs implementations they replaced, kept here as
// executable specifications (minus the event sinks). refTLP stores the
// hardware's N×N Ref matrix and recomputes a row on every allocation;
// refSLP finds its FT and AT victims with two scans over entry structs.
// The property tests and the fuzz target drive both sides through identical
// access streams and fail on the first divergence of any prefetch decision.

type refRPTEntry struct {
	page  addr.PageNum
	bits  bitmap.Seg16
	last  uint64
	valid bool
	refs  []bool // refs[j]: entry j is a neighbour of this entry
}

type refTLP struct {
	cfg     TLPConfig
	rpt     []refRPTEntry
	refSlab []bool
	idx     *hashidx.U64
	issues  uint64
}

func newRefTLP(cfg TLPConfig) *refTLP {
	t := &refTLP{cfg: cfg}
	n := cfg.RPTEntries
	t.rpt = make([]refRPTEntry, n)
	t.refSlab = make([]bool, n*n)
	for i := range t.rpt {
		t.rpt[i].refs = t.refSlab[i*n : (i+1)*n : (i+1)*n]
	}
	t.idx = hashidx.New(n)
	return t
}

func (t *refTLP) Reset() {
	for i := range t.rpt {
		e := &t.rpt[i]
		e.page, e.bits, e.last, e.valid = 0, 0, 0, false
		for j := range e.refs {
			e.refs[j] = false
		}
	}
	t.idx.Reset()
	t.issues = 0
}

func (t *refTLP) Train(a prefetch.Access) {
	p := a.Page()
	off := a.Block.SegOffset()
	if i, ok := t.idx.Get(uint64(p)); ok {
		e := &t.rpt[i]
		e.bits = e.bits.Set(off)
		e.last = a.Cycle
		return
	}
	i := t.allocate()
	e := &t.rpt[i]
	if e.valid {
		t.idx.Delete(uint64(e.page))
	}
	e.page = p
	e.bits = bitmap.Seg16(0).Set(off)
	e.last = a.Cycle
	e.valid = true
	t.idx.Put(uint64(p), int32(i))
	for j := range t.rpt {
		if j == i {
			e.refs[j] = false
			continue
		}
		o := &t.rpt[j]
		near := o.valid && p.Distance(o.page) <= t.cfg.DistThreshold
		e.refs[j] = near
		o.refs[i] = near
	}
}

func (t *refTLP) allocate() int {
	lru := 0
	for i := range t.rpt {
		if !t.rpt[i].valid {
			return i
		}
		if t.rpt[i].last < t.rpt[lru].last {
			lru = i
		}
	}
	return lru
}

func (t *refTLP) BestNeighbor(p addr.PageNum) (neighbor addr.PageNum, transfer bitmap.Seg16, ok bool) {
	i, exists := t.idx.Get(uint64(p))
	if !exists {
		return 0, 0, false
	}
	self := &t.rpt[i]
	best := -1
	bestCommon := t.cfg.MinCommon - 1
	for j := range t.rpt {
		if !self.refs[j] || !t.rpt[j].valid {
			continue
		}
		c := self.bits.Common(t.rpt[j].bits)
		if c > bestCommon {
			bestCommon = c
			best = j
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	tr := t.rpt[best].bits.Minus(self.bits)
	if tr == 0 {
		return 0, 0, false
	}
	return t.rpt[best].page, tr, true
}

func (t *refTLP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	p := a.Page()
	_, transfer, ok := t.BestNeighbor(p)
	if !ok {
		return dst
	}
	ch := a.Block.Channel()
	for v := uint16(transfer); v != 0; v &= v - 1 {
		dst = append(dst, p.Block(addr.OffsetOf(ch, bits.TrailingZeros16(v))))
	}
	t.issues++
	return dst
}

type refSLPEntry struct {
	page  addr.PageNum
	bits  bitmap.Seg16
	last  uint64
	valid bool
}

type refSLP struct {
	cfg    SLPConfig
	ft     []refSLPEntry
	at     []refSLPEntry
	pt     []ptEntry
	ptMask uint64
	sweep  int
	ftIdx  *hashidx.U64
	atIdx  *hashidx.U64

	promotions, snapshots, issues uint64
}

// newRefSLP takes its sizes from a production SLP so both sides share the
// constructor's defaulting and power-of-two PT rounding.
func newRefSLP(s *SLP) *refSLP {
	cfg := s.cfg
	return &refSLP{
		cfg:    cfg,
		ft:     make([]refSLPEntry, cfg.FTEntries),
		at:     make([]refSLPEntry, cfg.ATEntries),
		pt:     make([]ptEntry, cfg.PTEntries),
		ptMask: uint64(cfg.PTEntries - 1),
		ftIdx:  hashidx.New(cfg.FTEntries),
		atIdx:  hashidx.New(cfg.ATEntries),
	}
}

func (s *refSLP) Train(a prefetch.Access) {
	s.expire(a.Cycle)
	p := a.Page()
	off := a.Block.SegOffset()

	if i, ok := s.atIdx.Get(uint64(p)); ok {
		e := &s.at[i]
		e.bits = e.bits.Set(off)
		e.last = a.Cycle
		return
	}

	if i, ok := s.ftIdx.Get(uint64(p)); ok {
		e := &s.ft[i]
		e.bits = e.bits.Set(off)
		e.last = a.Cycle
		if e.bits.Count() >= s.cfg.FTPromote {
			s.promote(int(i), a.Cycle)
		}
		return
	}
	ftIdx := -1
	for i := range s.ft {
		if !s.ft[i].valid {
			ftIdx = i
			break
		}
	}
	if ftIdx == -1 {
		ftIdx = 0
		for i := 1; i < len(s.ft); i++ {
			if s.ft[i].last < s.ft[ftIdx].last {
				ftIdx = i
			}
		}
		s.ftIdx.Delete(uint64(s.ft[ftIdx].page))
	}
	s.ft[ftIdx] = refSLPEntry{page: p, bits: bitmap.Seg16(0).Set(off), last: a.Cycle, valid: true}
	s.ftIdx.Put(uint64(p), int32(ftIdx))
}

func (s *refSLP) promote(i int, now uint64) {
	f := s.ft[i]
	s.ft[i] = refSLPEntry{}
	s.ftIdx.Delete(uint64(f.page))
	s.promotions++
	atIdx := -1
	for j := range s.at {
		if !s.at[j].valid {
			atIdx = j
			break
		}
	}
	if atIdx == -1 {
		atIdx = 0
		for j := 1; j < len(s.at); j++ {
			if s.at[j].last < s.at[atIdx].last {
				atIdx = j
			}
		}
		s.capture(s.at[atIdx])
		s.atIdx.Delete(uint64(s.at[atIdx].page))
	}
	s.at[atIdx] = refSLPEntry{page: f.page, bits: f.bits, last: now, valid: true}
	s.atIdx.Put(uint64(f.page), int32(atIdx))
}

func (s *refSLP) expire(now uint64) {
	const perCall = 4
	for k := 0; k < perCall; k++ {
		i := s.sweep
		s.sweep = (s.sweep + 1) % len(s.at)
		e := &s.at[i]
		if e.valid && now > e.last && now-e.last > s.cfg.Timeout {
			s.capture(*e)
			s.atIdx.Delete(uint64(e.page))
			*e = refSLPEntry{}
		}
	}
}

func (s *refSLP) capture(e refSLPEntry) {
	if !e.valid || e.bits.Count() == 0 {
		return
	}
	s.snapshots++
	idx := uint64(e.page) & s.ptMask
	s.pt[idx] = ptEntry{tag: uint64(e.page), bits: e.bits, valid: true}
}

func (s *refSLP) Pattern(p addr.PageNum) (bitmap.Seg16, bool) {
	e := s.pt[uint64(p)&s.ptMask]
	if e.valid && e.tag == uint64(p) {
		return e.bits, true
	}
	return 0, false
}

func (s *refSLP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	p := a.Page()
	pat, ok := s.Pattern(p)
	if !ok {
		return dst
	}
	rest := pat.Clear(a.Block.SegOffset())
	if rest == 0 {
		return dst
	}
	ch := a.Block.Channel()
	for v := uint16(rest); v != 0; v &= v - 1 {
		dst = append(dst, p.Block(addr.OffsetOf(ch, bits.TrailingZeros16(v))))
	}
	s.issues++
	return dst
}

// equivStream decodes ops (4 bytes per access) into an access stream over a
// clustered page domain: pages sit within a few thresholds of base, so most
// pairs are neighbours, some are not, and the RPT, FT and AT all churn.
// Byte 0 picks the page; byte 1 the segment offset (bits 0–3), the channel
// (bits 4–5) and a hit (bit 6); bytes 2–3 the cycle step — mostly forward,
// sometimes zero (ties), and sometimes backward.
func equivStream(ops []byte, base addr.PageNum, span int) []prefetch.Access {
	out := make([]prefetch.Access, 0, len(ops)/4)
	cycle := uint64(1 << 20)
	for n := 0; n+4 <= len(ops); n += 4 {
		p := base + addr.PageNum(int(ops[n])%span)
		off, ch := int(ops[n+1]&15), int(ops[n+1]>>4)&3
		step := uint64(ops[n+2]) | uint64(ops[n+3])<<8
		switch {
		case step%8 == 0:
			// tie: same cycle as the previous access
		case step%8 == 1:
			cycle -= step % 1024 // backward step
		default:
			cycle += step
		}
		out = append(out, prefetch.Access{
			Block: p.Block(addr.OffsetOf(ch, off)), Cycle: cycle, Miss: ops[n+1]&64 == 0,
		})
	}
	return out
}

// tlpEquivConfig maps three fuzz bytes onto the ranges the equivalence
// tests cover: RPTEntries 1–16, DistThreshold 1–128, MinCommon 1–6.
func tlpEquivConfig(entries, dist, common uint8) TLPConfig {
	return TLPConfig{
		RPTEntries:    1 + int(entries)%16,
		DistThreshold: 1 + uint64(dist)%128,
		MinCommon:     1 + int(common)%6,
	}
}

// runTLPEquiv drives the SoA TLP and refTLP through accs and fails on the
// first divergence of IssueTo, of Issues(), or of BestNeighbor for any page
// in the domain (resident or not). resetAt, if positive, resets both sides
// once at that access.
func runTLPEquiv(t testing.TB, cfg TLPConfig, accs []prefetch.Access, base addr.PageNum, span, resetAt int) {
	t.Helper()
	got, want := NewTLP(cfg), newRefTLP(cfg)
	var gdst, wdst []addr.BlockNum
	for n, a := range accs {
		if n == resetAt {
			got.Reset()
			want.Reset()
		}
		got.Train(a)
		want.Train(a)
		gdst = got.IssueTo(a, gdst[:0])
		wdst = want.IssueTo(a, wdst[:0])
		if !equalBlocks(gdst, wdst) {
			t.Fatalf("%+v access %d (%+v): IssueTo = %v, reference %v", cfg, n, a, gdst, wdst)
		}
		if got.Issues() != want.issues {
			t.Fatalf("%+v access %d: Issues = %d, reference %d", cfg, n, got.Issues(), want.issues)
		}
		for q := base; q < base+addr.PageNum(span); q++ {
			gn, gt, gok := got.BestNeighbor(q)
			wn, wt, wok := want.BestNeighbor(q)
			if gn != wn || gt != wt || gok != wok {
				t.Fatalf("%+v access %d: BestNeighbor(%#x) = (%#x,%s,%v), reference (%#x,%s,%v)",
					cfg, n, uint64(q), uint64(gn), gt, gok, uint64(wn), wt, wok)
			}
		}
	}
}

// runSLPEquiv does the same for the SoA SLP against refSLP, comparing
// IssueTo, Counters and the pattern of every page in the domain.
func runSLPEquiv(t testing.TB, cfg SLPConfig, accs []prefetch.Access, base addr.PageNum, span int) {
	t.Helper()
	got := NewSLP(cfg)
	want := newRefSLP(got)
	var gdst, wdst []addr.BlockNum
	for n, a := range accs {
		got.Train(a)
		want.Train(a)
		gdst = got.IssueTo(a, gdst[:0])
		wdst = want.IssueTo(a, wdst[:0])
		if !equalBlocks(gdst, wdst) {
			t.Fatalf("%+v access %d (%+v): IssueTo = %v, reference %v", cfg, n, a, gdst, wdst)
		}
		gp, gs, gi := got.Counters()
		if gp != want.promotions || gs != want.snapshots || gi != want.issues {
			t.Fatalf("%+v access %d: Counters = (%d,%d,%d), reference (%d,%d,%d)",
				cfg, n, gp, gs, gi, want.promotions, want.snapshots, want.issues)
		}
		for q := base; q < base+addr.PageNum(span); q++ {
			gb, gok := got.Pattern(q)
			wb, wok := want.Pattern(q)
			if gb != wb || gok != wok {
				t.Fatalf("%+v access %d: Pattern(%#x) = (%s,%v), reference (%s,%v)",
					cfg, n, uint64(q), gb, gok, wb, wok)
			}
		}
	}
}

func equalBlocks(a, b []addr.BlockNum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// slpEquivConfig is a small SLP whose tables churn within a short stream:
// FT 1–8, AT 1–8, PT 4–32 entries, promotion at 1–4 offsets, timeout
// 1–4096 cycles.
func slpEquivConfig(sizes, timeout uint8) SLPConfig {
	return SLPConfig{
		FTEntries: 1 + int(sizes)%8,
		ATEntries: 1 + int(sizes>>3)%8,
		PTEntries: 4 << (sizes >> 6 % 4),
		FTPromote: 1 + int(sizes>>5)%4,
		Timeout:   1 + uint64(timeout)*16,
	}
}

// TestTLPMatchesReference is the seeded property test: random streams over
// random configurations in the covered ranges, with one Reset mid-stream.
func TestTLPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		cfg := tlpEquivConfig(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		span := 1 + int(2*cfg.DistThreshold) + rng.Intn(48)
		ops := make([]byte, 4*600)
		rng.Read(ops)
		base := addr.PageNum(rng.Intn(1 << 20))
		runTLPEquiv(t, cfg, equivStream(ops, base, span), base, span, rng.Intn(600))
	}
}

// TestSLPMatchesReference is the same property test for the SLP's SoA
// tables and compare-and-wrap expiry sweep.
func TestSLPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		cfg := slpEquivConfig(uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		span := 1 + rng.Intn(40)
		ops := make([]byte, 4*600)
		rng.Read(ops)
		base := addr.PageNum(rng.Intn(1 << 20))
		runSLPEquiv(t, cfg, equivStream(ops, base, span), base, span)
	}
}

// TestTLPMatchesReferenceAtPageSpaceEnds covers what the clustered streams
// cannot: pages at both ends of the page space under thresholds up to the
// full uint64 range, where the neighbour window saturates.
func TestTLPMatchesReferenceAtPageSpaceEnds(t *testing.T) {
	top := addr.BlockNum(^uint64(0)).Page()
	pages := []addr.PageNum{0, 1, 2, top / 2, top - 2, top - 1, top}
	var accs []prefetch.Access
	for k := 0; k < 6; k++ {
		for n, p := range pages {
			accs = append(accs, prefetch.Access{Block: p.Block(addr.OffsetOf(0, (n+k)%16)), Cycle: uint64(len(accs)), Miss: true})
		}
	}
	for _, thr := range []uint64{1, 2, uint64(top / 2), uint64(top) - 1, uint64(top), 1 << 63, ^uint64(0)} {
		cfg := TLPConfig{RPTEntries: len(pages), DistThreshold: thr, MinCommon: 1}
		got, want := NewTLP(cfg), newRefTLP(cfg)
		for _, a := range accs {
			got.Train(a)
			want.Train(a)
		}
		for _, p := range pages {
			gn, gt, gok := got.BestNeighbor(p)
			wn, wt, wok := want.BestNeighbor(p)
			if gn != wn || gt != wt || gok != wok {
				t.Fatalf("threshold %#x: BestNeighbor(%#x) = (%#x,%s,%v), reference (%#x,%s,%v)",
					thr, uint64(p), uint64(gn), gt, gok, uint64(wn), wt, wok)
			}
		}
	}
}

// FuzzTLPEquivalence lets the fuzzer hunt for access streams and configs
// that split the SoA TLP (or SLP) from its reference. Run with
//
//	go test -run '^$' -fuzz=FuzzTLPEquivalence ./internal/core/
func FuzzTLPEquivalence(f *testing.F) {
	f.Add(uint8(15), uint8(63), uint8(3), uint8(40), []byte{0, 1, 2, 0, 1, 2, 0, 0, 2, 3, 9, 1, 0, 4, 1, 0})
	f.Add(uint8(3), uint8(0), uint8(0), uint8(7), []byte{5, 64, 8, 0, 6, 65, 1, 0, 5, 2, 0, 0, 7, 3, 16, 0})
	f.Add(uint8(0), uint8(127), uint8(5), uint8(200), []byte{255, 15, 255, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, entries, dist, common, span uint8, ops []byte) {
		if len(ops) > 4*1024 {
			ops = ops[:4*1024]
		}
		cfg := tlpEquivConfig(entries, dist, common)
		sp := 1 + int(span)%(2*int(cfg.DistThreshold)+8)
		base := addr.PageNum(0x4000)
		accs := equivStream(ops, base, sp)
		runTLPEquiv(t, cfg, accs, base, sp, len(accs)/2)
		runSLPEquiv(t, slpEquivConfig(entries^dist, common^span), accs, base, sp)
	})
}
