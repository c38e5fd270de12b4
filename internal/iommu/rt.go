package iommu

import (
	"hdpat/internal/tlb"
)

// RedirectTable is the lightweight structure of §IV-F: an LRU-managed map
// from (PID, VPN) to the caching GPM that most recently received that
// translation. It stores no physical addresses and needs no MSHRs, which is
// exactly why it is smaller and more concurrency-friendly than a TLB at
// equal area (Fig 19): a hit simply redirects the request and the entry's
// work is done.
//
// Entries live in one slice and link to each other by index, so the table
// holds no pointers: kept for reuse (Reset) it costs a garbage collection
// nothing to scan.
type RedirectTable struct {
	cap   int
	index map[tlb.Key]int32 // slot of each resident key
	slots []rtSlot
	head  int32 // MRU slot, noSlot when empty
	tail  int32 // LRU slot
	free  int32 // first removed slot, chained through next

	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
}

type rtSlot struct {
	key        tlb.Key
	gpm        int32
	prev, next int32
}

// noSlot ends the recency list and the free chain.
const noSlot = int32(-1)

// NewRedirectTable creates a table with the given entry capacity.
func NewRedirectTable(capacity int) *RedirectTable {
	r := new(RedirectTable)
	r.Reset(capacity)
	return r
}

// Reset empties the table, zeroes its counters and sets its capacity,
// keeping its storage, so it behaves as a NewRedirectTable(capacity).
func (r *RedirectTable) Reset(capacity int) {
	if r.index == nil {
		r.index = make(map[tlb.Key]int32)
	}
	clear(r.index)
	*r = RedirectTable{cap: capacity, index: r.index, slots: r.slots[:0], head: noSlot, tail: noSlot, free: noSlot}
}

// Len returns the resident entry count.
func (r *RedirectTable) Len() int { return len(r.index) }

// Capacity returns the entry capacity.
func (r *RedirectTable) Capacity() int { return r.cap }

func (r *RedirectTable) unlink(i int32) {
	n := &r.slots[i]
	if n.prev != noSlot {
		r.slots[n.prev].next = n.next
	} else {
		r.head = n.next
	}
	if n.next != noSlot {
		r.slots[n.next].prev = n.prev
	} else {
		r.tail = n.prev
	}
	n.prev, n.next = noSlot, noSlot
}

func (r *RedirectTable) pushFront(i int32) {
	n := &r.slots[i]
	n.prev, n.next = noSlot, r.head
	if r.head != noSlot {
		r.slots[r.head].prev = i
	}
	r.head = i
	if r.tail == noSlot {
		r.tail = i
	}
}

// Lookup returns the GPM holding k's translation, refreshing recency.
func (r *RedirectTable) Lookup(k tlb.Key) (int, bool) {
	i, ok := r.index[k]
	if !ok {
		r.Misses++
		return 0, false
	}
	r.unlink(i)
	r.pushFront(i)
	r.Hits++
	return int(r.slots[i].gpm), true
}

// Insert records that gpm now holds k's translation, evicting LRU on
// overflow. Re-inserting refreshes and may re-point an existing entry.
func (r *RedirectTable) Insert(k tlb.Key, gpm int) {
	if r.cap <= 0 {
		return
	}
	if i, ok := r.index[k]; ok {
		r.slots[i].gpm = int32(gpm)
		r.unlink(i)
		r.pushFront(i)
		return
	}
	var i int32
	switch {
	case len(r.index) >= r.cap:
		// The victim's slot takes the new entry.
		i = r.tail
		r.unlink(i)
		delete(r.index, r.slots[i].key)
		r.Evictions++
	case r.free != noSlot:
		i = r.free
		r.free = r.slots[i].next
	default:
		i = int32(len(r.slots))
		if len(r.slots) == cap(r.slots) {
			// Double, but never past the capacity: append's own growth
			// would overshoot it, and the table never uses more.
			r.slots = append(make([]rtSlot, 0, min(max(2*len(r.slots), 16), r.cap)), r.slots...)
		}
		r.slots = append(r.slots, rtSlot{})
	}
	r.slots[i] = rtSlot{key: k, gpm: int32(gpm)}
	r.index[k] = i
	r.pushFront(i)
	r.Inserts++
}

// Remove drops a stale entry (a redirect that missed at the target GPM).
func (r *RedirectTable) Remove(k tlb.Key) bool {
	i, ok := r.index[k]
	if !ok {
		return false
	}
	r.unlink(i)
	delete(r.index, k)
	r.slots[i].next = r.free
	r.free = i
	return true
}
