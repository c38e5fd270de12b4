package cache

import (
	"slices"
	"testing"
)

// cacheOp applies one fuzz op (data byte op, line byte lb, op index n) to c,
// logging wakes into log, and returns its result.
func cacheOp(c *Cache, log *[]string, op, lb byte, n int) [2]bool {
	line := uint64(lb % 16)
	var r [2]bool
	switch op % 5 {
	case 0:
		r[0] = c.Lookup(line)
	case 1:
		c.Insert(line)
	case 2:
		r[0], r[1] = c.MissTrack(line, logWaiter{id: n, log: log, track: c.MissTrack})
	case 3:
		c.Fill(line)
	case 4:
		c.Flush()
	}
	return r
}

// FuzzCacheResetMatchesNew drives a cache with a first op sequence —
// leaving resident lines and outstanding misses with waiters behind — then
// Resets it. The reset cache and a New one then run a second sequence side
// by side: every return value, Stats, Len, OutstandingMisses, each set's
// recency order and the wake order must match, and no waiter of the first
// sequence may wake.
func FuzzCacheResetMatchesNew(f *testing.F) {
	f.Add([]byte{0x21, 3, 5, 2, 1, 2, 1, 2, 2, 1, 3, 1, 4, 0, 1, 2, 1, 3, 2, 0, 3, 3, 1, 2, 5, 3, 5})
	f.Add([]byte{0x12, 1, 3, 1, 0, 1, 2, 2, 7, 0, 0, 0, 2, 2, 7, 3, 7, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		sets, ways, mshrs := 1+int(data[0]%4), 1+int(data[1]%8), 1+int(data[0]>>4%4)
		cfg := Config{SizeBytes: sets * ways * LineSize, Ways: ways, MSHRs: mshrs}
		ops := data[3:]
		first := 2 * (int(data[2]) % (len(ops)/2 + 1))

		used := New(cfg)
		var usedLog, freshLog []string
		for n, i := 0, 0; i+1 < first; n, i = n+1, i+2 {
			cacheOp(used, &usedLog, ops[i], ops[i+1], n)
		}
		used.Reset()
		stale := len(usedLog)

		fresh := New(cfg)
		for n, i := 0, first; i+1 < len(ops); n, i = n+1, i+2 {
			g := cacheOp(used, &usedLog, ops[i], ops[i+1], n)
			w := cacheOp(fresh, &freshLog, ops[i], ops[i+1], n)
			if g != w {
				t.Fatalf("op %d (%d): reset %v, new %v", n, ops[i]%5, g, w)
			}
			if used.Stats != fresh.Stats || used.Len() != fresh.Len() || used.OutstandingMisses() != fresh.OutstandingMisses() {
				t.Fatalf("op %d: reset stats %+v len %d outstanding %d, new %+v len %d outstanding %d", n,
					used.Stats, used.Len(), used.OutstandingMisses(), fresh.Stats, fresh.Len(), fresh.OutstandingMisses())
			}
			for s := range cfg.Sets() {
				if g, w := resident(used, s), resident(fresh, s); !slices.Equal(g, w) {
					t.Fatalf("op %d: set %d = %v, new %v", n, s, g, w)
				}
			}
			if !slices.Equal(usedLog[stale:], freshLog) {
				t.Fatalf("op %d: wake order %v, new %v (first-sequence wakes: %v)", n, usedLog[stale:], freshLog, usedLog[:stale])
			}
		}
	})
}
