package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// identityDraws exceeds twice the register length, so both the feed and the
// tap index wrap past 607 and every entry is read after being rewritten.
const identityDraws = 2000

// tableISeeds returns every seed workload.Context draws from on a Table I
// wafer (48 GPMs of 32 CUs) at run seeds 1–32: Seed ^ GPM<<20 ^ CU<<8.
func tableISeeds() []int64 {
	var out []int64
	for seed := int64(1); seed <= 32; seed++ {
		for gpm := int64(0); gpm < 48; gpm++ {
			for cu := int64(0); cu < 32; cu++ {
				out = append(out, seed^gpm<<20^cu<<8)
			}
		}
	}
	return out
}

// edgeSeeds covers the normalization branches: zero, negatives, the
// extremes of int64, and multiples of the modulus 2³¹−1 (which map to the
// zero-seed substitute).
func edgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 0x5eed, seedZero}
	for _, k := range []int64{1, 2, 3, 1 << 20, 1<<32 - 1} {
		seeds = append(seeds, k*int32max, -k*int32max, k*int32max+1, k*int32max-1, -k*int32max+1)
	}
	return seeds
}

// compare draws n values from both sources, cycling through the rand.Rand
// methods and a rand.Zipf on top, so Int63, Uint64 and the derived Intn,
// Int31n, Float64 and Zipf paths are all exercised, and fails on the first
// difference.
func compare(t testing.TB, seed int64, n int) {
	t.Helper()
	want, got := rand.New(rand.NewSource(seed)), rand.New(NewSource(seed))
	wantZipf, gotZipf := rand.NewZipf(want, 1.2, 1, 4095), rand.NewZipf(got, 1.2, 1, 4095)
	for i := 0; i < n; i++ {
		var w, g uint64
		switch i % 7 {
		case 0:
			w, g = uint64(want.Int63()), uint64(got.Int63())
		case 1:
			w, g = want.Uint64(), got.Uint64()
		case 2:
			w, g = uint64(want.Intn(1000003)), uint64(got.Intn(1000003))
		case 3:
			w, g = uint64(want.Int31n(1<<30+7)), uint64(got.Int31n(1<<30+7))
		case 4:
			w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
		case 5:
			w, g = uint64(want.Intn(8)), uint64(got.Intn(8))
		case 6:
			w, g = wantZipf.Uint64(), gotZipf.Uint64()
		}
		if w != g {
			t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
		}
	}
}

// compareRaw draws n values straight from both sources: the cheap form for
// the tens of thousands of workload seeds.
func compareRaw(t testing.TB, seed int64, n int) {
	t.Helper()
	want, got := rand.NewSource(seed).(rand.Source64), NewSource(seed)
	for i := 0; i < n; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds() {
		compare(t, seed, identityDraws)
	}
	seeds := tableISeeds()
	if testing.Short() {
		seeds = seeds[:48*32] // run seed 1 only
	}
	for _, seed := range seeds {
		compareRaw(t, seed, identityDraws)
	}
}

// TestReseed checks Seed discards every entry computed under the old seed.
func TestReseed(t *testing.T) {
	want := rand.NewSource(42).(rand.Source64)
	s := NewSource(7)
	for i := 0; i < 900; i++ {
		s.Uint64()
	}
	s.Seed(42)
	for i := 0; i < identityDraws; i++ {
		if w, g := want.Uint64(), s.Uint64(); w != g {
			t.Fatalf("draw %d after reseed: got %d, want %d", i, g, w)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds() {
		f.Add(seed, uint16(identityDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		compare(t, seed, int(draws))
	})
}

// BenchmarkSeedAndDraw prices what a trace generator pays: one seed and 32
// bounded draws.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  func(int64) rand.Source
	}{
		{"mathrand", rand.NewSource},
		{"xrand", func(s int64) rand.Source { return NewSource(s) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rand.New(bc.src(int64(i)))
				for k := 0; k < 32; k++ {
					r.Intn(64)
				}
			}
		})
	}
}
