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
	// idle counts, for each leaf the fills since the last Reset left all
	// zero, how many resets in a row have found it so.
	idle  map[uint64]uint8
	size  int
	owned []int // owned[o]: valid mappings whose frame lives on GPM o
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

// Reset empties the table for reuse, keeping its storage: every leaf
// written since the last reset is zeroed in place and keeps its key, so a
// table refilled with the same mappings writes into the leaves the last
// fill used and allocates none. A leaf that keepIdle resets in a row find
// all zero is dropped, so the table sheds what a larger fill left once the
// fills that follow stop using it. Owner views stay valid.
func (t *PageTable) Reset() {
	for k, l := range t.leaves {
		if !l.empty() {
			*l = leaf{}
			delete(t.idle, k)
			continue
		}
		if t.idle == nil {
			t.idle = map[uint64]uint8{}
		}
		t.idle[k]++
		if t.idle[k] >= keepIdle {
			delete(t.leaves, k)
			delete(t.idle, k)
		}
	}
	t.size = 0
	clear(t.owned)
	t.owned = t.owned[:0]
}

// keepIdle is how many resets in a row must find a leaf unused for Reset
// to drop it. A sweep alternates footprints: at Table I, PR fills 2 leaves,
// SPMV 16 and FIR 33, so dropping every leaf the last fill left unused
// made each SPMV or FIR run after a smaller one allocate its surplus anew:
// 1.42 MB against 0.18 MB per round of transfw and hdpat on the three, run
// after run on one store. Sixteen covers a rotation through all 14 Table II
// benchmarks.
const keepIdle = 16

// empty reports whether no entry of l was written since it was zeroed.
func (l *leaf) empty() bool {
	for i := range l {
		if l[i] != (PTE{}) {
			return false
		}
	}
	return true
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
