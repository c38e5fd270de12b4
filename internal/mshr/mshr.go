// Package mshr holds the miss-status holding registers behind the TLB and
// cache MSHR files. Registers are parallel key and waiter-list slices, a
// probe scans only the occupied ones, and emptied waiter lists are reused,
// so a miss allocates nothing once a file has warmed up.
package mshr

// File is a set of registers keyed by K, each holding the waiters W of one
// outstanding miss, primary first and merges in arrival order.
type File[K comparable, W any] struct {
	keys    []K
	waiters [][]W // waiters[i] wait on keys[i]
	free    [][]W // emptied waiter lists kept for reuse
}

// Len returns the number of occupied registers.
func (f *File[K, W]) Len() int { return len(f.keys) }

func (f *File[K, W]) find(k K) int {
	for i, x := range f.keys {
		if x == k {
			return i
		}
	}
	return -1
}

// Waiters returns how many waiters (primary + merged) wait on k.
func (f *File[K, W]) Waiters(k K) int {
	if i := f.find(k); i >= 0 {
		return len(f.waiters[i])
	}
	return 0
}

// Allocate registers a miss on k waking w at completion.
//
//	primary=true  — a new register was allocated for k.
//	primary=false, ok=true — merged into k's existing register.
//	ok=false      — all capacity registers are occupied by other keys.
func (f *File[K, W]) Allocate(k K, w W, capacity int) (primary, ok bool) {
	if i := f.find(k); i >= 0 {
		ws := f.waiters[i]
		if len(ws) == cap(ws) {
			ws = f.roomier(ws)
		}
		f.waiters[i] = append(ws, w)
		return false, true
	}
	if len(f.keys) >= capacity {
		return false, false
	}
	var ws []W
	if n := len(f.free); n > 0 {
		ws, f.free = f.free[n-1], f.free[:n-1]
	}
	f.keys = append(f.keys, k)
	f.waiters = append(f.waiters, append(ws, w))
	return true, true
}

// roomier moves the waiters of the full list ws into a free list with more
// room, if one is kept, and keeps ws in its place. Free lists go to
// primary misses in release order, so a key that gathers many waiters
// often starts on a short list; swapping spares the append that would
// grow it while a longer one sits idle, and the lists a file keeps
// converge on the sizes its traffic needs.
func (f *File[K, W]) roomier(ws []W) []W {
	for j, l := range f.free {
		if cap(l) > len(ws) {
			l = append(l, ws...)
			clear(ws)
			f.free[j] = ws[:0]
			return l
		}
	}
	return ws
}

// Take removes k's register and returns its waiters, or nil when k has no
// register. The register is gone before the caller wakes anyone, so a
// waiter that allocates k again gets a fresh register. Hand the list back
// with Release once every waiter has been woken.
func (f *File[K, W]) Take(k K) []W {
	i := f.find(k)
	if i < 0 {
		return nil
	}
	ws, last := f.waiters[i], len(f.keys)-1
	f.keys[i], f.waiters[i] = f.keys[last], f.waiters[last]
	f.waiters[last] = nil
	f.keys, f.waiters = f.keys[:last], f.waiters[:last]
	return ws
}

// Release recycles a waiter list returned by Take.
func (f *File[K, W]) Release(ws []W) {
	if ws == nil {
		return
	}
	clear(ws)
	f.free = append(f.free, ws[:0])
}

// Reset drops every register and its waiters without waking them, keeping
// the waiter lists for reuse.
func (f *File[K, W]) Reset() {
	for i, ws := range f.waiters {
		f.Release(ws)
		f.waiters[i] = nil
	}
	clear(f.keys)
	f.keys, f.waiters = f.keys[:0], f.waiters[:0]
}
