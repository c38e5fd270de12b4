package cuckoo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestInsertContains(t *testing.T) {
	f := New(1000)
	for k := uint64(0); k < 1000; k++ {
		if !f.Insert(k) {
			t.Fatalf("insert %d failed at load %.2f", k, f.LoadFactor())
		}
	}
	for k := uint64(0); k < 1000; k++ {
		if !f.Contains(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
	if f.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", f.Len())
	}
}

// The defining property: no false negatives, ever.
func TestNoFalseNegativesProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := New(2000)
		keys := map[uint64]bool{}
		for i := 0; i < 1500; i++ {
			k := rng.Uint64() >> 20 // VPN-like
			if f.Insert(k) {
				keys[k] = true
			}
		}
		for k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10000)
	for k := uint64(0); k < 10000; k++ {
		f.Insert(k)
	}
	fp := 0
	probes := 200000
	for i := 0; i < probes; i++ {
		if f.Contains(uint64(1_000_000 + i)) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	// 12-bit fingerprints, 4-way buckets: expect ~0.2 %. Allow 1 %.
	if rate > 0.01 {
		t.Errorf("false-positive rate %.4f too high", rate)
	}
	if rate == 0 {
		t.Log("warning: observed zero false positives (unusual but legal)")
	}
}

func TestDelete(t *testing.T) {
	f := New(100)
	f.Insert(42)
	if !f.Delete(42) {
		t.Fatal("delete of present key failed")
	}
	if f.Contains(42) {
		// Could be a collision with another key's fingerprint, but the
		// filter is otherwise empty, so this must not happen.
		t.Fatal("key still present after delete")
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d after delete", f.Len())
	}
	if f.Delete(42) {
		t.Error("delete of absent key returned true")
	}
}

func TestDeleteRestoresCapacity(t *testing.T) {
	f := New(500)
	for k := uint64(0); k < 500; k++ {
		f.Insert(k)
	}
	for k := uint64(0); k < 500; k++ {
		if !f.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", f.Len())
	}
	for k := uint64(1000); k < 1500; k++ {
		if !f.Insert(k) {
			t.Fatalf("re-insert %d failed", k)
		}
	}
}

func TestAltIndexSymmetry(t *testing.T) {
	f := New(1024)
	for i := 0; i < 1000; i++ {
		key := rand.Uint64()
		fp := fingerprint(key)
		i1 := f.index1(key)
		i2 := f.altIndex(i1, fp)
		if f.altIndex(i2, fp) != i1 {
			t.Fatalf("alt index not symmetric for key %#x", key)
		}
	}
}

func TestFingerprintNeverZero(t *testing.T) {
	fn := func(key uint64) bool { return fingerprint(key) != 0 }
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestHighLoadInsert(t *testing.T) {
	f := New(4096)
	inserted := 0
	for k := uint64(0); k < 4096; k++ {
		if f.Insert(k) {
			inserted++
		}
	}
	if inserted < 4050 {
		t.Errorf("only %d/4096 inserted; filter sized too tight", inserted)
	}
}

// fillPastCapacity inserts keys from base until the filter's 128 slots are
// nearly full, so later inserts displace fingerprints along RNG-chosen
// chains, and returns the insert outcomes.
func fillPastCapacity(f *Filter, base uint64) []bool {
	out := make([]bool, 0, 124)
	for k := base; k < base+124; k++ {
		out = append(out, f.Insert(k))
	}
	return out
}

// Reset empties the filter, and a reset filter then follows the same
// eviction chains as a new one: same bucket contents, Kicked and Len after
// the same kick-heavy load. Before Reset reseeded the kick RNG, the first
// full bucket diverged.
func TestReset(t *testing.T) {
	f := New(100)
	for k := uint64(0); k < 100; k++ {
		f.Insert(k)
	}
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("Len = %d after reset", f.Len())
	}
	for k := uint64(0); k < 100; k++ {
		if f.Contains(k) && k%7 == 0 {
			t.Fatalf("stale key %d after reset", k)
		}
	}

	used := New(100)
	fillPastCapacity(used, 1000)
	if used.Kicked == 0 {
		t.Fatal("warm-up load forced no kicks; the test would not see the RNG")
	}
	used.Reset()
	fresh := New(100)
	gotIns, wantIns := fillPastCapacity(used, 0), fillPastCapacity(fresh, 0)
	if fresh.Kicked == 0 {
		t.Fatal("test load forced no kicks")
	}
	if !slices.Equal(gotIns, wantIns) {
		t.Errorf("insert outcomes diverge after Reset:\n got %v\nwant %v", gotIns, wantIns)
	}
	if !slices.Equal(used.buckets, fresh.buckets) {
		t.Error("bucket contents diverge after Reset")
	}
	if used.Kicked != fresh.Kicked || used.Len() != fresh.Len() {
		t.Errorf("Kicked %d Len %d after Reset, want %d and %d", used.Kicked, used.Len(), fresh.Kicked, fresh.Len())
	}
}

// Refit reuses larger storage at a smaller filter's bucket count and then
// behaves as New at that count; it refuses to grow.
func TestRefit(t *testing.T) {
	big := New(1000)
	fillPastCapacity(big, 5000)
	if !big.Refit(100) {
		t.Fatal("Refit(100) on a New(1000) filter refused")
	}
	fresh := New(100)
	if big.Capacity() != fresh.Capacity() {
		t.Fatalf("Capacity %d after Refit(100), want %d", big.Capacity(), fresh.Capacity())
	}
	fillPastCapacity(big, 0)
	fillPastCapacity(fresh, 0)
	if !slices.Equal(big.buckets, fresh.buckets) || big.Kicked != fresh.Kicked || big.Len() != fresh.Len() {
		t.Error("refit filter diverges from New")
	}
	small := New(100)
	if small.Refit(1000) {
		t.Error("Refit(1000) on a New(100) filter claimed to fit")
	}
	if small.Capacity() != fresh.Capacity() {
		t.Error("a refused Refit changed the filter")
	}
}

func TestCapacityRounding(t *testing.T) {
	f := New(1000)
	if f.Capacity()&(f.Capacity()-1) != 0 && f.Capacity()%SlotsPerBucket != 0 {
		t.Errorf("capacity %d not bucket-aligned power of two", f.Capacity())
	}
	if f.Capacity() < 1000 {
		t.Errorf("capacity %d below requested 1000", f.Capacity())
	}
}

func BenchmarkInsert(b *testing.B) {
	f := New(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Len() > 60000 {
			f.Reset()
		}
		f.Insert(uint64(i))
	}
}

func BenchmarkContains(b *testing.B) {
	f := New(1 << 16)
	for k := uint64(0); k < 60000; k++ {
		f.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i))
	}
}
