package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/events"
	"repro/internal/prefetch"
)

// CoordMode selects the coordination strategy. Decoupled is Planaria's
// contribution; the other two model the prior-art coordinator families the
// paper compares against in Section 7 and back the abl-coord experiment.
type CoordMode int

// Coordination modes.
const (
	// Decoupled is "parallel training and serial issuing": every demand
	// access trains both sub-prefetchers (full-pattern directed
	// learning), while only one sub-prefetcher — SLP preferentially —
	// issues for a given trigger.
	Decoupled CoordMode = iota
	// Serial models a TPC-style serial coordinator with monolithic
	// sub-prefetchers: only the selected sub-prefetcher both learns and
	// issues, so the idle one goes blind.
	Serial
	// Parallel models an ISB-style parallel coordinator: both
	// sub-prefetchers learn and both issue; their requests are unioned.
	Parallel
)

// String returns the mode mnemonic.
func (m CoordMode) String() string {
	switch m {
	case Decoupled:
		return "decoupled"
	case Serial:
		return "serial"
	case Parallel:
		return "parallel"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config bundles the sub-prefetcher configurations and the coordinator mode.
type Config struct {
	SLP  SLPConfig
	TLP  TLPConfig
	Mode CoordMode
	// DisableSLP / DisableTLP turn a sub-prefetcher off entirely,
	// enabling the Figure 9 breakdown runs.
	DisableSLP bool
	DisableTLP bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{SLP: DefaultSLPConfig(), TLP: DefaultTLPConfig(), Mode: Decoupled}
}

// Planaria is the composite prefetcher for one channel: SLP + TLP under the
// coordinator (Figure 1).
type Planaria struct {
	cfg Config
	slp *SLP
	tlp *TLP

	slpIssues uint64 // triggers answered by SLP
	tlpIssues uint64 // triggers answered by TLP

	lastOrigin string // sub-prefetcher that answered the most recent Issue

	// sink receives decision events (arbitration outcomes here, learning
	// milestones from the sub-prefetchers); nil when tracing is disabled,
	// which keeps the hot path at one nil check per decision.
	sink events.Sink
}

// New builds a Planaria instance.
func New(cfg Config) *Planaria {
	return &Planaria{cfg: cfg, slp: NewSLP(cfg.SLP), tlp: NewTLP(cfg.TLP)}
}

// Name implements prefetch.Prefetcher.
func (p *Planaria) Name() string {
	switch {
	case p.cfg.DisableTLP && p.cfg.DisableSLP:
		return "planaria-off"
	case p.cfg.DisableTLP:
		return "planaria-slp"
	case p.cfg.DisableSLP:
		return "planaria-tlp"
	case p.cfg.Mode != Decoupled:
		return "planaria-" + p.cfg.Mode.String()
	}
	return "planaria"
}

// Reset implements prefetch.Prefetcher.
func (p *Planaria) Reset() {
	p.slp.Reset()
	p.tlp.Reset()
	p.slpIssues, p.tlpIssues = 0, 0
	p.lastOrigin = ""
}

// SetEventSink installs the decision-event sink on the coordinator and both
// sub-prefetchers (nil disables tracing). The engine calls it once per
// channel when event tracing is enabled; see docs/TRACING.md.
func (p *Planaria) SetEventSink(s events.Sink) {
	p.sink = s
	p.slp.SetEventSink(s)
	p.tlp.SetEventSink(s)
}

// SLP exposes the intra-page sub-prefetcher (for tests and analysis).
func (p *Planaria) SLP() *SLP { return p.slp }

// TLP exposes the inter-page sub-prefetcher (for tests and analysis).
func (p *Planaria) TLP() *TLP { return p.tlp }

// Train implements prefetch.Prefetcher — the learning phase.
//
// In Decoupled and Parallel modes both sub-prefetchers observe every demand
// access. In Serial (monolithic) mode only the sub-prefetcher currently
// selected for this page learns, reproducing the blindness of prior serial
// coordinators.
func (p *Planaria) Train(a prefetch.Access) {
	switch p.cfg.Mode {
	case Serial:
		if p.selectSLP(a) {
			if !p.cfg.DisableSLP {
				p.slp.Train(a)
			}
		} else if !p.cfg.DisableTLP {
			p.tlp.Train(a)
		}
	default:
		if !p.cfg.DisableSLP {
			p.slp.Train(a)
		}
		if !p.cfg.DisableTLP {
			p.tlp.Train(a)
		}
	}
}

// selectSLP applies the paper's selection rule: SLP issues preferentially;
// TLP is enabled only when SLP has no history for the page.
func (p *Planaria) selectSLP(a prefetch.Access) bool {
	if p.cfg.DisableSLP {
		return false
	}
	if p.cfg.DisableTLP {
		return true
	}
	return p.slp.HasMetadata(a.Page())
}

// Issue implements prefetch.Prefetcher — the issuing phase.
func (p *Planaria) Issue(a prefetch.Access) []addr.BlockNum {
	return p.IssueTo(a, nil)
}

// IssueTo implements prefetch.BufferedIssuer: Issue appending into the
// caller's buffer. The engine threads one persistent buffer per channel
// through here, making the composite's entire issuing phase allocation-free.
func (p *Planaria) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	if p.cfg.Mode == Parallel {
		base := len(dst)
		if !p.cfg.DisableSLP {
			if dst = p.slp.IssueTo(a, dst); len(dst) > base {
				p.slpIssues++
			}
		}
		mid := len(dst)
		if !p.cfg.DisableTLP {
			if dst = p.tlp.IssueTo(a, dst); len(dst) > mid {
				p.tlpIssues++
			}
		}
		return dedupTail(dst, base, mid)
	}
	// Decoupled and Serial both issue serially: SLP first, TLP as the
	// fallback when SLP has nothing for this page.
	base := len(dst)
	if !p.cfg.DisableSLP {
		if dst = p.slp.IssueTo(a, dst); len(dst) > base {
			p.slpIssues++
			p.lastOrigin = "slp"
			if p.sink != nil {
				// SLP won the trigger: TLP was suppressed by the
				// serial-issuing priority rule (or is simply off).
				reason := events.ReasonSLPPriority
				if p.cfg.DisableTLP {
					reason = events.ReasonDisabled
				}
				p.sink.Emit(events.Event{
					Kind: events.KindArbitration, Cycle: a.Cycle, Block: a.Block,
					Origin: events.OriginSLP, Reason: reason, N: uint16(len(dst) - base),
				})
			}
			return dst
		}
	}
	if !p.cfg.DisableTLP {
		if dst = p.tlp.IssueTo(a, dst); len(dst) > base {
			p.tlpIssues++
			p.lastOrigin = "tlp"
			if p.sink != nil {
				// The trigger fell through to TLP: SLP had no usable
				// pattern for the page (or is disabled).
				reason := events.ReasonNoMetadata
				if p.cfg.DisableSLP {
					reason = events.ReasonDisabled
				}
				p.sink.Emit(events.Event{
					Kind: events.KindArbitration, Cycle: a.Cycle, Block: a.Block,
					Origin: events.OriginTLP, Reason: reason, N: uint16(len(dst) - base),
				})
			}
			return dst
		}
	}
	p.lastOrigin = ""
	return dst
}

// Peek implements prefetch.Component: the blocks Issue would return for a,
// computed from the same metadata probes (SLP's pattern table, TLP's best
// neighbour) without mutating any state, counters or events. The tournament
// calls it on every trigger for shadow evaluation.
func (p *Planaria) Peek(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	page := a.Page()
	ch := a.Block.Channel()
	trigger := a.Block.SegOffset()
	if p.cfg.Mode == Parallel {
		// Union of both sub-prefetchers, deduplicated like IssueTo's
		// dedupTail (an offset mask; all candidates live in the trigger
		// page's segment).
		var seen bitmap.Seg16
		if !p.cfg.DisableSLP {
			if pat, ok := p.slp.Pattern(page); ok {
				seen = pat.Clear(trigger)
				dst = appendBlocks(dst, page, ch, seen)
			}
		}
		if !p.cfg.DisableTLP {
			if _, transfer, ok := p.tlp.BestNeighbor(page); ok {
				dst = appendBlocks(dst, page, ch, transfer.Minus(seen))
			}
		}
		return dst
	}
	// Decoupled and Serial: SLP's snapshot first, TLP as the fallback —
	// the same priority order as Issue.
	if !p.cfg.DisableSLP {
		if pat, ok := p.slp.Pattern(page); ok {
			if rest := pat.Clear(trigger); rest != 0 {
				return appendBlocks(dst, page, ch, rest)
			}
		}
	}
	if !p.cfg.DisableTLP {
		if _, transfer, ok := p.tlp.BestNeighbor(page); ok {
			dst = appendBlocks(dst, page, ch, transfer)
		}
	}
	return dst
}

// Origin reports which sub-prefetcher answered the most recent Issue call
// ("slp", "tlp", or "" for none/union). The engine uses it to attribute
// useful prefetches per sub-prefetcher (the Figure 9 in-system breakdown).
func (p *Planaria) Origin() string {
	if p.cfg.Mode == Parallel {
		return "" // union issues have no single origin
	}
	return p.lastOrigin
}

// IssueShare returns how many triggers each sub-prefetcher answered — the
// Figure 9 breakdown input.
func (p *Planaria) IssueShare() (slp, tlp uint64) { return p.slpIssues, p.tlpIssues }

// StorageBits implements prefetch.Prefetcher.
func (p *Planaria) StorageBits() int {
	return p.slp.StorageBits() + p.tlp.StorageBits()
}

// dedupTail removes from dst[mid:] (TLP's candidates) any block already
// present in dst[base:mid] (SLP's), compacting in place. Both
// sub-prefetchers target only the trigger page's own channel segment and
// never repeat an offset internally, so membership is a 16-bit mask of
// segment offsets — the allocation-free replacement for the per-call map
// the Parallel-mode union used to build.
func dedupTail(dst []addr.BlockNum, base, mid int) []addr.BlockNum {
	if mid == len(dst) || base == mid {
		return dst
	}
	var seen uint16
	for _, b := range dst[base:mid] {
		seen |= 1 << uint(b.SegOffset())
	}
	out := dst[:mid]
	for _, b := range dst[mid:] {
		if bit := uint16(1) << uint(b.SegOffset()); seen&bit == 0 {
			seen |= bit
			out = append(out, b)
		}
	}
	return out
}

// Interface conformance checks.
var (
	_ prefetch.Prefetcher     = (*Planaria)(nil)
	_ prefetch.Component      = (*Planaria)(nil)
	_ prefetch.Prefetcher     = (*SLP)(nil)
	_ prefetch.Prefetcher     = (*TLP)(nil)
	_ prefetch.BufferedIssuer = (*Planaria)(nil)
	_ prefetch.BufferedIssuer = (*SLP)(nil)
	_ prefetch.BufferedIssuer = (*TLP)(nil)
)
