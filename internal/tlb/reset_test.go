package tlb

import (
	"slices"
	"testing"

	"hdpat/internal/metrics"
	"hdpat/internal/vm"
)

// tlbPair is a TLB and its MSHR file, with the evictions and wakes they
// have reported.
type tlbPair struct {
	t       *TLB
	m       *MSHR
	evicted []vm.PTE
	log     []string
}

func newTLBPair(sets, ways, mshrs int) *tlbPair {
	p := &tlbPair{t: New(Config{Sets: sets, Ways: ways}), m: NewMSHR(mshrs)}
	p.t.OnEvict = func(e vm.PTE) { p.evicted = append(p.evicted, e) }
	return p
}

// step applies one fuzz op (data byte op, key byte kb, op index n) and
// returns its result.
func (p *tlbPair) step(op, kb byte, n int) any {
	k := Key{PID: vm.PID(kb >> 7), VPN: vm.VPN(kb % 16)}
	e := vm.PTE{VPN: k.VPN, PID: k.PID, PFN: vm.PFN(n), Owner: n % 3, Valid: true}
	switch op % 8 {
	case 0, 1:
		got, ok := p.t.Lookup(k)
		return [2]any{got, ok}
	case 2:
		got, ok := p.t.Peek(k)
		return [2]any{got, ok}
	case 3, 4:
		p.t.Insert(e)
	case 5:
		return p.t.Invalidate(k)
	case 6:
		primary, ok := p.m.Allocate(k, logFiller{id: n, k: k, log: &p.log, reg: p.m.Allocate})
		return [2]bool{primary, ok}
	case 7:
		if kb&0x40 != 0 {
			p.t.Flush()
			break
		}
		p.m.Complete(k, e, n%2 == 0)
	}
	return nil
}

// FuzzTLBResetMatchesNew drives a TLB and its MSHR file with a first op
// sequence — leaving entries, metrics counts and outstanding misses with
// waiters behind — then Resets both. The reset pair and a New pair then run
// a second sequence side by side: every return value, Stats, Len, each
// set's recency order, the OnEvict sequence, the MSHR counters and the wake
// order must match, no waiter of the first sequence may wake, and the
// first sequence's metrics counters must not move.
func FuzzTLBResetMatchesNew(f *testing.F) {
	f.Add([]byte{0x21, 3, 6, 6, 1, 6, 1, 6, 2, 3, 3, 0, 3, 3, 4, 6, 4, 7, 2, 6, 9, 0, 1, 3, 1, 7, 1})
	f.Add([]byte{0x13, 1, 4, 3, 0, 3, 1, 3, 2, 6, 5, 3, 0, 3, 1, 3, 2, 3, 3, 0, 2, 6, 5, 7, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		sets, ways, mshrs := 1+int(data[0]%4), 1+int(data[1]%8), 1+int(data[0]>>4%4)
		ops := data[3:]
		first := 2 * (int(data[2]) % (len(ops)/2 + 1))

		used := newTLBPair(sets, ways, mshrs)
		reg := metrics.NewRegistry()
		hits, misses := reg.Counter("hits"), reg.Counter("misses")
		used.t.AttachMetrics(hits, misses)
		for n, i := 0, 0; i+1 < first; n, i = n+1, i+2 {
			used.step(ops[i], ops[i+1], n)
		}
		used.t.Reset()
		used.m.Reset()
		stale, h0, m0 := len(used.log), hits.Value(), misses.Value()
		used.evicted = nil

		fresh := newTLBPair(sets, ways, mshrs)
		for n, i := 0, first; i+1 < len(ops); n, i = n+1, i+2 {
			g, w := used.step(ops[i], ops[i+1], n), fresh.step(ops[i], ops[i+1], n)
			if g != w {
				t.Fatalf("op %d (%d): reset %v, new %v", n, ops[i]%8, g, w)
			}
			if used.t.Stats != fresh.t.Stats || used.t.Len() != fresh.t.Len() {
				t.Fatalf("op %d: reset stats %+v len %d, new %+v len %d", n, used.t.Stats, used.t.Len(), fresh.t.Stats, fresh.t.Len())
			}
			for s := range sets {
				if g, w := recency(used.t, s), recency(fresh.t, s); !slices.Equal(g, w) {
					t.Fatalf("op %d: set %d recency %v, new %v", n, s, g, w)
				}
			}
			if !slices.Equal(used.evicted, fresh.evicted) {
				t.Fatalf("op %d: evicted %v, new %v", n, used.evicted, fresh.evicted)
			}
			gm := [5]int{int(used.m.Allocated), int(used.m.Merged), int(used.m.Stalled), used.m.PeakUsed, used.m.Used()}
			wm := [5]int{int(fresh.m.Allocated), int(fresh.m.Merged), int(fresh.m.Stalled), fresh.m.PeakUsed, fresh.m.Used()}
			if gm != wm {
				t.Fatalf("op %d: mshr %v, new %v", n, gm, wm)
			}
			if !slices.Equal(used.log[stale:], fresh.log) {
				t.Fatalf("op %d: wake order %v, new %v (first-sequence wakes: %v)", n, used.log[stale:], fresh.log, used.log[:stale])
			}
		}
		if hits.Value() != h0 || misses.Value() != m0 {
			t.Fatalf("reset TLB still counts into the old registry: hits %d→%d misses %d→%d", h0, hits.Value(), m0, misses.Value())
		}
	})
}
