// Package xrand provides a math/rand source that seeds lazily. Its
// Int63/Uint64 stream is identical to math/rand.NewSource(seed) for every
// seed, so any rand.Rand, Intn, Float64 or rand.Zipf built on it draws the
// same values.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-entry register. Seeding fills all 607 entries up front: each costs
// three steps of the Park–Miller recurrence x ← 48271·x mod (2³¹−1), so a
// seed is about 1,840 steps (~15 µs) however few values are drawn. The
// simulator seeds one source per (GPM, CU) trace and draws a few dozen values
// from each, so that seeding was most of the wafer build.
//
// Entry i depends on the seed only through x_{21+3i}, x_{22+3i} and
// x_{23+3i}, where x_k = 48271^k·seed mod (2³¹−1). With a seed-independent
// table of 48271^(21+3i) this source computes entry i in three modular
// multiplications the first time it is read, and a bitmap records which
// entries exist.
package xrand

import (
	"math/rand"
	"reflect"
)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	seedMul  = 48271
	// seedZero replaces a seed ≡ 0 (mod 2³¹−1), a fixed point of the
	// recurrence; math/rand uses the same constant.
	seedZero = 89482311
)

var (
	// jump[i] is 48271^(21+3i) mod (2³¹−1): the multiplier that takes the
	// normalized seed to the first recurrence value entry i consumes.
	jump [rngLen]uint64
	// cooked is math/rand's unexported rngCooked table, the seed-independent
	// part XORed into every entry.
	cooked [rngLen]int64
)

func init() {
	m := uint64(1)
	for k := 0; k < 21; k++ {
		m = m * seedMul % int32max
	}
	const cube = seedMul * seedMul % int32max * seedMul % int32max
	for i := range jump {
		jump[i] = m
		m = m * cube % int32max
	}

	// Recover rngCooked from a seeded math/rand source rather than copying
	// 607 constants: each register entry is its seed part XOR the cooked
	// value, and the seed part is recomputed here. TestSourceMatchesMathRand
	// catches any change to math/rand's internals.
	vec := reflect.ValueOf(rand.NewSource(1)).Elem().FieldByName("vec")
	if vec.Kind() != reflect.Array || vec.Len() != rngLen {
		panic("xrand: math/rand source layout changed; cannot derive its seeding table")
	}
	for i := range cooked {
		cooked[i] = vec.Index(i).Int() ^ seedPart(1, i)
	}
}

// seedPart is the seed-dependent half of register entry i for a normalized
// seed in [1, 2³¹−1).
func seedPart(seed uint64, i int) int64 {
	x := jump[i] * seed % int32max
	u := int64(x) << 40
	x = x * seedMul % int32max
	u ^= int64(x) << 20
	x = x * seedMul % int32max
	return u ^ int64(x)
}

// source is math/rand's rngSource with the register filled on demand.
type source struct {
	tap  int
	feed int
	seed uint64                     // normalized to [1, 2³¹−1)
	have [(rngLen + 63) / 64]uint64 // bit i set once vec[i] is computed
	vec  [rngLen]int64
}

// NewSource returns a source whose stream equals math/rand.NewSource(seed).
// Like math/rand's, it is not safe for concurrent use.
func NewSource(seed int64) rand.Source64 {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state math/rand's Seed(seed) would give.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	s.seed = uint64(seed)
	s.have = [len(s.have)]uint64{}
}

// at returns register entry i, computing it on first use.
func (s *source) at(i int) int64 {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.have[w]&b == 0 {
		s.have[w] |= b
		s.vec[i] = seedPart(s.seed, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.at(s.feed) + s.at(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
