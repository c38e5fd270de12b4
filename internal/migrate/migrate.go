// Package migrate implements the page-migration extension the paper's
// conclusion names as future work ("opens pathways for future exploration
// in ... intelligent page migration"). A manager observes remote
// translation requests; when one GPM dominates the traffic to a page, the
// page is migrated into that GPM's HBM: the page tables are repointed, a
// wafer-wide TLB shootdown retires every cached copy of the old
// translation, and the page data is copied over the mesh. Subsequent
// accesses are fully local — no GMMU/IOMMU involvement at all.
//
// The paper excludes migration from its evaluation precisely because the
// zero-copy model's computable ownership breaks under it; the placement
// layer keeps an explicit overlay for migrated pages so owner-dependent
// schemes (ownerfw) stay correct.
package migrate

import (
	"hdpat/internal/core"
	"hdpat/internal/sim"
	"hdpat/internal/tlb"
	"hdpat/internal/trace"
	"hdpat/internal/vm"
	"hdpat/internal/xlat"
)

// Config tunes the migration policy.
type Config struct {
	// Threshold is the number of remote translation requests from a single
	// GPM after which migration is considered.
	Threshold uint32
	// DominanceNum/DominanceDen: the top requester must account for at
	// least Num/Den of the page's remote requests, or the page is shared
	// and migrating it would ping-pong. Default 2/3.
	DominanceNum uint32
	DominanceDen uint32
	// Cooldown is the minimum interval between migrations of the same page.
	Cooldown sim.VTime
	// MaxInflight bounds concurrent migrations (DMA engine count).
	MaxInflight int
}

// DefaultConfig returns a conservative policy.
func DefaultConfig() Config {
	return Config{Threshold: 2, DominanceNum: 2, DominanceDen: 3, Cooldown: 50_000, MaxInflight: 8}
}

// Stats counts migration activity.
type Stats struct {
	Migrations   uint64
	BytesMoved   uint64
	Dropped      uint64 // cached entries retired by shootdowns
	SkippedShare uint64 // candidates rejected as shared (no dominant GPM)
	SkippedBusy  uint64 // candidates rejected by inflight/cooldown limits
}

type pageHeat struct {
	byGPM     map[int]uint32
	total     uint32
	lastMoved sim.VTime
	moved     bool
}

// Manager watches remote translation traffic and migrates hot pages.
type Manager struct {
	f   *core.Fabric
	cfg Config

	heat     map[tlb.Key]*pageHeat
	inflight int
	migFree  []*migration

	Stats Stats

	// Trace, when non-nil, receives one span per migration (from decision to
	// destination write completion).
	Trace *trace.Tracer
}

// New creates a manager over an assembled fabric (Placement must be set).
func New(f *core.Fabric, cfg Config) *Manager {
	if cfg.DominanceDen == 0 {
		cfg.DominanceNum, cfg.DominanceDen = 2, 3
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 1
	}
	return &Manager{f: f, cfg: cfg, heat: make(map[tlb.Key]*pageHeat)}
}

// Wrap interposes the manager on a translation scheme so it sees every
// remote request (not only those reaching the IOMMU — peer-served pages are
// exactly the ones worth making local).
func (m *Manager) Wrap(inner xlat.RemoteTranslator) xlat.RemoteTranslator {
	return &wrapped{m: m, inner: inner}
}

type wrapped struct {
	m     *Manager
	inner xlat.RemoteTranslator
}

func (w *wrapped) Name() string { return w.inner.Name() + "+migrate" }

func (w *wrapped) Translate(req *xlat.Request) {
	w.m.observe(req)
	w.inner.Translate(req)
}

func (m *Manager) observe(req *xlat.Request) {
	k := tlb.Key{PID: req.PID, VPN: req.VPN}
	h := m.heat[k]
	if h == nil {
		h = &pageHeat{byGPM: make(map[int]uint32)}
		m.heat[k] = h
	}
	h.byGPM[req.Requester]++
	h.total++
	n := h.byGPM[req.Requester]
	if n < m.cfg.Threshold {
		return
	}
	// Dominance check: a page most GPMs share must stay put.
	if n*m.cfg.DominanceDen < h.total*m.cfg.DominanceNum {
		m.Stats.SkippedShare++
		return
	}
	now := m.f.Eng.Now()
	if m.inflight >= m.cfg.MaxInflight || (h.moved && now-h.lastMoved < m.cfg.Cooldown) {
		m.Stats.SkippedBusy++
		return
	}
	m.migrate(k, req.Requester, h)
}

// migrate repoints the page to the target GPM, shoots down stale cached
// translations wafer-wide, then copies the page data over the mesh. The
// move from shootdown-done to destination write is carried by one pooled
// migration state machine instead of nested closures.
func (m *Manager) migrate(k tlb.Key, to int, h *pageHeat) {
	old, _, ok := m.f.Placement.Migrate(k.VPN, to)
	if !ok {
		return
	}
	m.inflight++
	h.moved = true
	started := m.f.Eng.Now()
	h.lastMoved = started
	// Reset the heat so post-migration traffic is judged afresh.
	h.byGPM = make(map[int]uint32)
	h.total = 0

	target := m.f.GPMs[to]
	target.AddLocalMapping(k.PID, k.VPN)

	var mg *migration
	if n := len(m.migFree); n > 0 {
		mg = m.migFree[n-1]
		m.migFree = m.migFree[:n-1]
	} else {
		mg = new(migration)
	}
	*mg = migration{
		m: m, k: k, from: old.Owner, to: to,
		started: started, pageBytes: int(m.f.GPMs[0].PageSize()),
	}
	m.f.Shootdown(k.PID, []vm.VPN{k.VPN}, mg.shotDown)
}

// migration phases, advanced by each Event delivery.
const (
	migCopyArrived = iota // page copy reached the target tile
	migWritten            // destination HBM write finished
)

// migration is one in-flight page move: shootdown acknowledgement, the page
// copy over the mesh (charged against link bandwidth), and HBM time at the
// destination.
type migration struct {
	m         *Manager
	k         tlb.Key
	from, to  int
	started   sim.VTime
	pageBytes int
	state     uint8
}

// shotDown receives the wafer-wide shootdown acknowledgement and launches
// the page copy.
func (mg *migration) shotDown(dropped int) {
	m := mg.m
	m.Stats.Dropped += uint64(dropped)
	src := m.f.GPMs[mg.from]
	mg.state = migCopyArrived
	m.f.Mesh.SendH(src.Coord, m.f.GPMs[mg.to].Coord, mg.pageBytes, mg, sim.EventArg{})
}

// Event implements sim.Handler.
func (mg *migration) Event(sim.EventArg) {
	switch mg.state {
	case migCopyArrived:
		mg.state = migWritten
		mg.m.f.GPMs[mg.to].ServeLine(0, mg, sim.EventArg{}) // destination write
	case migWritten:
		m := mg.m
		m.Stats.Migrations++
		m.Stats.BytesMoved += uint64(mg.pageBytes)
		if m.Trace != nil {
			m.Trace.MigrationSpan(uint64(mg.started), uint64(m.f.Eng.Now()), uint64(mg.k.VPN), mg.from, mg.to)
		}
		m.inflight--
		*mg = migration{}
		m.migFree = append(m.migFree, mg)
	}
}
