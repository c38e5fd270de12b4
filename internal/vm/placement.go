package vm

import "fmt"

// Placement implements the driver's zero-copy memory management model
// (§II-A): each allocation's pages are evenly partitioned into contiguous
// chunks, chunk i residing on GPM i ("pages 1-10 assigned to GPM 1, pages
// 11-20 to GPM 2, and so forth"). The split is balanced — GPM g owns pages
// [g*P/N, (g+1)*P/N) — which matches the paper's example exactly when N
// divides P and never leaves a GPM without pages when P >= N. The owner of
// any page is therefore computable from the VPN alone, which Trans-FW
// exploits to short-circuit walks directly to the owning GMMU.
//
// Placement also plays the role of the OS allocator: it hands out physical
// frames per GPM and populates the one global page table the IOMMU walks;
// each GPM's local page table is the owner view of it (Local).
type Placement struct {
	NumGPMs  int
	PageSize PageSize

	global *PageTable // every mapping; walked by the IOMMU

	nextVPN VPN   // simple bump allocator for virtual pages
	nextPFN []PFN // per-GPM physical frame bump allocator

	// moved overlays migrated pages on the block-partition arithmetic.
	moved map[VPN]int

	regions []Region
}

// Region describes one allocation.
type Region struct {
	Name       string
	Start      VPN
	Pages      int
	ChunkPages int // average pages per GPM chunk (ceil), informational
}

// Contains reports whether v falls inside the region.
func (r Region) Contains(v VPN) bool {
	return v >= r.Start && v < r.Start+VPN(r.Pages)
}

// OwnerSlice returns the page-index range [lo, hi) of this region owned by
// GPM g under the balanced block partition. The intermediate products run
// in 64 bits: at giant-wafer scale (tens of thousands of GPMs times
// millions of pages) g*Pages overflows a 32-bit int.
func (r Region) OwnerSlice(g, numGPMs int) (lo, hi int) {
	return int(int64(g) * int64(r.Pages) / int64(numGPMs)),
		int(int64(g+1) * int64(r.Pages) / int64(numGPMs))
}

// ownerOfIndex inverts OwnerSlice for page index idx; 64-bit intermediates
// for the same reason.
func ownerOfIndex(idx, pages, numGPMs int) int {
	o := int((int64(idx+1)*int64(numGPMs) - 1) / int64(pages))
	if o >= numGPMs {
		o = numGPMs - 1
	}
	return o
}

// NewPlacement creates an allocator for a wafer with n GPMs.
func NewPlacement(n int, ps PageSize) *Placement {
	p := &Placement{global: NewPageTable()}
	p.Reset(n, ps)
	return p
}

// Reset returns p to the state NewPlacement(n, ps) returns, keeping its
// storage for allocations like the last ones: the page table's leaves (see
// PageTable.Reset), the frame counters when n is unchanged, and the
// ownership overlay when the last run migrated pages. Every migration's
// trace goes: the overlay, the owner counts and the frame counters.
func (p *Placement) Reset(n int, ps PageSize) {
	p.NumGPMs, p.PageSize = n, ps
	p.global.Reset()
	p.nextVPN = 1 // keep VPN 0 unmapped, as a guard
	if len(p.nextPFN) != n {
		p.nextPFN = make([]PFN, n)
	}
	for i := range p.nextPFN {
		p.nextPFN[i] = PFN(uint64(i) << frameSpaceBits) // disjoint frame spaces per GPM
	}
	if len(p.moved) == 0 {
		p.moved = nil
	} else {
		clear(p.moved)
	}
	clear(p.regions)
	p.regions = p.regions[:0]
}

// frameSpaceBits separates the per-GPM physical frame spaces: GPM i's bump
// allocator starts at i<<frameSpaceBits. 2^24 frames of 4K pages is 64 GB
// per GPM — far above any modelled HBM stack. takeFrame guards the
// boundary so a pathological allocation fails loudly instead of silently
// colliding with the next GPM's frames. (The width is part of the
// simulated physical address layout, which cache indexing observes, so it
// cannot be widened without perturbing every result.)
const frameSpaceBits = 24

// takeFrame hands out the next physical frame on the given GPM.
func (p *Placement) takeFrame(owner int) PFN {
	f := p.nextPFN[owner]
	if uint64(f) >= (uint64(owner)+1)<<frameSpaceBits {
		panic(fmt.Sprintf("vm: GPM %d exhausted its 2^%d-frame space", owner, frameSpaceBits))
	}
	p.nextPFN[owner]++
	return f
}

// Global returns the IOMMU's global page table.
func (p *Placement) Global() *PageTable { return p.global }

// Local returns GPM i's local page table: the global table's mappings whose
// frames live in its own HBM.
func (p *Placement) Local(i int) OwnerView { return OwnerView{t: p.global, owner: i} }

// Regions returns all allocations made so far.
func (p *Placement) Regions() []Region { return p.regions }

// Alloc carves out an allocation of `pages` pages, partitions it evenly
// across the GPMs, installs all mappings, and returns the region. Page
// counts that do not divide evenly leave the last GPM with a short chunk,
// mirroring how a real driver rounds the split.
func (p *Placement) Alloc(name string, pages int, pid PID) Region {
	if pages <= 0 {
		panic("vm: allocation must have at least one page")
	}
	chunk := (pages + p.NumGPMs - 1) / p.NumGPMs
	r := Region{Name: name, Start: p.nextVPN, Pages: pages, ChunkPages: chunk}
	for i := 0; i < pages; i++ {
		v := r.Start + VPN(i)
		owner := ownerOfIndex(i, pages, p.NumGPMs)
		pte := PTE{VPN: v, PFN: p.takeFrame(owner), PID: pid, Owner: owner, Valid: true}
		p.global.Insert(pte)
	}
	p.nextVPN += VPN(pages)
	p.regions = append(p.regions, r)
	return r
}

// OwnerOf computes which GPM owns the frame backing v without walking any
// table, using the region arithmetic the driver exposes. ok is false for
// unmapped VPNs.
func (p *Placement) OwnerOf(v VPN) (int, bool) {
	if o, ok := p.moved[v]; ok {
		return o, true
	}
	for _, r := range p.regions {
		if r.Contains(v) {
			return ownerOfIndex(int(v-r.Start), r.Pages, p.NumGPMs), true
		}
	}
	return 0, false
}

// TotalPages returns the number of pages mapped across all regions.
func (p *Placement) TotalPages() int {
	n := 0
	for _, r := range p.regions {
		n += r.Pages
	}
	return n
}

// Free unmaps an entire region, migrated pages included, returning the VPNs
// that were unmapped. The caller is responsible for the TLB shootdown that
// must follow (§II-A: freeing memory is the one operation that requires
// one).
func (p *Placement) Free(r Region) []VPN {
	var vpns []VPN
	for i := 0; i < r.Pages; i++ {
		v := r.Start + VPN(i)
		if p.global.Remove(v) {
			vpns = append(vpns, v)
		}
		delete(p.moved, v)
	}
	// Drop the region record so OwnerOf stops resolving it.
	for i := range p.regions {
		if p.regions[i].Start == r.Start && p.regions[i].Pages == r.Pages {
			p.regions = append(p.regions[:i], p.regions[i+1:]...)
			break
		}
	}
	return vpns
}

// Migrate moves page v's frame to GPM `to`: the global table is repointed
// at a fresh frame on the target, which moves the page from the old owner's
// local view to the target's. The ownership overlay keeps OwnerOf
// computable (migrated pages are exceptions to the block arithmetic, which
// is exactly why the paper's zero-copy model defers migration to future
// work). Returns the old and new PTEs.
func (p *Placement) Migrate(v VPN, to int) (old, new PTE, ok bool) {
	old, ok = p.global.Lookup(v)
	if !ok || old.Owner == to {
		return old, old, false
	}
	new = old
	new.Owner = to
	new.PFN = p.takeFrame(to)
	p.global.Insert(new)
	if p.moved == nil {
		p.moved = make(map[VPN]int)
	}
	p.moved[v] = to
	return old, new, true
}

// Migrated reports how many pages have been moved off their home chunk.
func (p *Placement) Migrated() int { return len(p.moved) }
