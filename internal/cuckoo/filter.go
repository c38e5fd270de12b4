// Package cuckoo implements the cuckoo filter of Fan et al. (CoNEXT'14),
// the probabilistic membership structure that sits between the L2 TLB and
// the last-level TLB in each GPM (§II-B). A negative answer guarantees the
// queried VPN is absent from the local page table, letting the request skip
// the local walk; false positives occur at a real, measurable rate and force
// the doubled-latency path the paper describes.
//
// This is a genuine partial-key cuckoo hash: 4-way buckets, 12-bit
// fingerprints, alternate bucket index derived from the fingerprint alone so
// displaced fingerprints can move without the original key.
package cuckoo

import (
	"math/rand"

	"hdpat/internal/xrand"
)

const (
	// SlotsPerBucket is the bucket associativity (b=4 in the paper's
	// recommended configuration).
	SlotsPerBucket = 4
	// fpBits is the fingerprint width; 12 bits gives a false-positive rate
	// around 2b/2^f ≈ 0.2 % at high load.
	fpBits = 12
	fpMask = 1<<fpBits - 1
	// maxKicks bounds the eviction chain during insert.
	maxKicks = 500
	// kickSeed seeds the RNG that picks which fingerprint an insert into two
	// full buckets displaces.
	kickSeed = 0x5eed
)

// Filter is a cuckoo filter over uint64 keys (VPNs).
// It is not safe for concurrent use; the simulator is single-threaded.
type Filter struct {
	buckets [][SlotsPerBucket]uint16
	mask    uint64 // len(buckets)-1
	count   int
	rng     *rand.Rand

	// Kicked counts total displacement operations, exposed for tests and
	// occupancy studies.
	Kicked uint64
}

// New creates a filter with capacity for roughly n keys at ~95 % load.
// The bucket count is rounded up to a power of two.
func New(n int) *Filter {
	buckets := bucketsFor(n)
	return &Filter{
		buckets: make([][SlotsPerBucket]uint16, buckets),
		mask:    uint64(buckets - 1),
		rng:     rand.New(xrand.NewSource(kickSeed)),
	}
}

// bucketsFor returns the bucket count New(n) allocates.
func bucketsFor(n int) int {
	buckets := 1
	need := (n + SlotsPerBucket - 1) / SlotsPerBucket
	// Head room: cuckoo filters fill reliably to ~95 %.
	need = need + need/16 + 1
	for buckets < need {
		buckets <<= 1
	}
	return buckets
}

// splitmix64 is a strong, allocation-free 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fingerprint derives a non-zero fingerprint from the key; zero is the empty
// slot marker.
func fingerprint(key uint64) uint16 {
	fp := uint16(splitmix64(key)>>32) & fpMask
	if fp == 0 {
		fp = 1
	}
	return fp
}

func (f *Filter) index1(key uint64) uint64 {
	return splitmix64(key) & f.mask
}

// index2 derives the alternate bucket from an index and the fingerprint
// only, so i1 == altIndex(i2, fp) and vice versa (xor construction).
func (f *Filter) altIndex(i uint64, fp uint16) uint64 {
	return (i ^ splitmix64(uint64(fp))) & f.mask
}

// Len returns the number of stored fingerprints.
func (f *Filter) Len() int { return f.count }

// Capacity returns the total slot count.
func (f *Filter) Capacity() int { return len(f.buckets) * SlotsPerBucket }

// LoadFactor returns the fraction of slots in use.
func (f *Filter) LoadFactor() float64 {
	return float64(f.count) / float64(f.Capacity())
}

// Contains reports whether key may be present. False positives possible,
// false negatives impossible for inserted-and-not-deleted keys.
func (f *Filter) Contains(key uint64) bool {
	fp := fingerprint(key)
	i1 := f.index1(key)
	if f.bucketHas(i1, fp) {
		return true
	}
	return f.bucketHas(f.altIndex(i1, fp), fp)
}

func (f *Filter) bucketHas(i uint64, fp uint16) bool {
	b := &f.buckets[i]
	for s := 0; s < SlotsPerBucket; s++ {
		if b[s] == fp {
			return true
		}
	}
	return false
}

func (f *Filter) bucketInsert(i uint64, fp uint16) bool {
	b := &f.buckets[i]
	for s := 0; s < SlotsPerBucket; s++ {
		if b[s] == 0 {
			b[s] = fp
			return true
		}
	}
	return false
}

// Insert adds key. It returns false only if the filter is too full to accept
// the key after the maximum eviction effort; the caller (a GMMU managing its
// local page table summary) treats that as "rebuild needed" — in practice the
// filters are sized so this does not occur.
func (f *Filter) Insert(key uint64) bool {
	fp := fingerprint(key)
	i1 := f.index1(key)
	i2 := f.altIndex(i1, fp)
	if f.bucketInsert(i1, fp) || f.bucketInsert(i2, fp) {
		f.count++
		return true
	}
	// Kick a random resident fingerprint to its alternate bucket.
	i := i1
	if f.rng.Intn(2) == 1 {
		i = i2
	}
	for k := 0; k < maxKicks; k++ {
		slot := f.rng.Intn(SlotsPerBucket)
		fp, f.buckets[i][slot] = f.buckets[i][slot], fp
		f.Kicked++
		i = f.altIndex(i, fp)
		if f.bucketInsert(i, fp) {
			f.count++
			return true
		}
	}
	return false
}

// Delete removes one copy of key's fingerprint and reports whether one was
// found. Deleting a never-inserted key can, with fingerprint-collision
// probability, remove another key's fingerprint — a documented cuckoo filter
// property; callers only delete keys they inserted.
func (f *Filter) Delete(key uint64) bool {
	fp := fingerprint(key)
	i1 := f.index1(key)
	if f.bucketDelete(i1, fp) {
		f.count--
		return true
	}
	if f.bucketDelete(f.altIndex(i1, fp), fp) {
		f.count--
		return true
	}
	return false
}

func (f *Filter) bucketDelete(i uint64, fp uint16) bool {
	b := &f.buckets[i]
	for s := 0; s < SlotsPerBucket; s++ {
		if b[s] == fp {
			b[s] = 0
			return true
		}
	}
	return false
}

// Reset clears the filter in place and restarts its kick sequence, so it
// then behaves exactly as a New filter of the same capacity: the same
// eviction chains, Kicked and Len.
func (f *Filter) Reset() {
	clear(f.buckets)
	f.count = 0
	f.Kicked = 0
	f.rng.Seed(kickSeed)
}

// Refit resets the filter to the bucket count New(n) would allocate,
// reusing its storage, and reports whether that storage was large enough.
// When it was not, the filter is left unchanged and the caller builds a New
// one.
func (f *Filter) Refit(n int) bool {
	buckets := bucketsFor(n)
	if buckets > cap(f.buckets) {
		return false
	}
	f.buckets = f.buckets[:buckets]
	f.mask = uint64(buckets - 1)
	f.Reset()
	return true
}
