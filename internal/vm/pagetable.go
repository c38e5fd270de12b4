package vm

// PageTable maps VPNs to PTEs. A wafer holds exactly one: the global table
// the IOMMU walks, of which each GMMU's local table is an owner view
// (OwnerView). Walk cost lives in config, not in the structure: the GMMU
// and IOMMU charge config.GPM.WalkCycles and config.IOMMU.WalkCycles, the
// paper's five levels at 100 cycles each (Table I).
//
// Entries live in sparse 512-PTE leaves keyed by leaf number v>>9, the
// grouping of a radix table's last level: adjacent VPNs share a leaf, while
// a table mapping a few pages costs one leaf rather than a chain of
// interior nodes.
type PageTable struct {
	leaves map[uint64]*leaf
	size   int
	owned  []int // owned[o]: valid mappings whose frame lives on GPM o
}

const leafBits = 9

type leaf [1 << leafBits]PTE

// NewPageTable creates an empty table.
func NewPageTable() *PageTable { return &PageTable{leaves: map[uint64]*leaf{}} }

// Len returns the number of valid mappings.
func (t *PageTable) Len() int { return t.size }

func (t *PageTable) slot(v VPN) *PTE {
	if l := t.leaves[uint64(v)>>leafBits]; l != nil {
		return &l[v&(1<<leafBits-1)]
	}
	return nil
}

// Insert maps pte.VPN. Replacing an existing mapping is allowed.
func (t *PageTable) Insert(pte PTE) {
	s := t.slot(pte.VPN)
	if s == nil {
		l := new(leaf)
		t.leaves[uint64(pte.VPN)>>leafBits] = l
		s = &l[pte.VPN&(1<<leafBits-1)]
	}
	if s.Valid {
		t.owned[s.Owner]--
	} else {
		t.size++
	}
	for len(t.owned) <= pte.Owner {
		t.owned = append(t.owned, 0)
	}
	t.owned[pte.Owner]++
	pte.Valid = true
	*s = pte
}

// Lookup returns the entry mapping v.
func (t *PageTable) Lookup(v VPN) (PTE, bool) {
	if s := t.slot(v); s != nil && s.Valid {
		return *s, true
	}
	return PTE{}, false
}

// Contains reports whether v is mapped.
func (t *PageTable) Contains(v VPN) bool {
	_, ok := t.Lookup(v)
	return ok
}

// Remove unmaps v and reports whether it was present. Emptied leaves are
// not reclaimed; unmap traffic is negligible in this model (§II-A:
// shootdown only at free).
func (t *PageTable) Remove(v VPN) bool {
	s := t.slot(v)
	if s == nil || !s.Valid {
		return false
	}
	s.Valid = false
	t.size--
	t.owned[s.Owner]--
	return true
}

// OwnerView is a GMMU's local page table: the global table filtered to
// PTE.Owner == owner. In the zero-copy model every frame lives on exactly
// one GPM, so the filter is the whole local table, and it stays consistent
// with the global one by construction.
type OwnerView struct {
	t     *PageTable
	owner int
}

// Lookup returns the entry mapping v if its frame lives on the view's owner.
func (o OwnerView) Lookup(v VPN) (PTE, bool) {
	if pte, ok := o.t.Lookup(v); ok && pte.Owner == o.owner {
		return pte, true
	}
	return PTE{}, false
}

// Contains reports whether v is mapped to a frame on the view's owner.
func (o OwnerView) Contains(v VPN) bool {
	_, ok := o.Lookup(v)
	return ok
}

// Len returns the number of pages whose frames live on the view's owner.
func (o OwnerView) Len() int {
	if o.owner < len(o.t.owned) {
		return o.t.owned[o.owner]
	}
	return 0
}
