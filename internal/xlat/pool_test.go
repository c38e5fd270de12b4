package xlat

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

type discard struct{}

func (discard) RequestDone(*Request, Result) {}

// TestPoolChecksTripwire: with checks armed, every touch of a released
// request panics instead of silently corrupting a recycled object.
func TestPoolChecksTripwire(t *testing.T) {
	SetPoolChecks(true)
	defer SetPoolChecks(false)

	p := NewRequestPool()
	r := p.Get(1, 0, 0x10, 3, 0, discard{})
	r.Unref() // last reference: released to the pool

	mustPanic(t, "Ref on released request", func() { r.Ref() })
	mustPanic(t, "Unref on released request", func() { r.Unref() })
	mustPanic(t, "Complete on released request", func() { r.Complete(Result{}) })
	mustPanic(t, "Completed on released request", func() { r.Completed() })
}

// TestUnrefUnderflowPanics: an unbalanced Unref is a bug in the leg
// accounting and must fail loudly even without pool checks.
func TestUnrefUnderflowPanics(t *testing.T) {
	r := NewRequest(7, 0, 0x20, 0, 0, func(Result) {})
	r.refs = 0 // simulate a leg double-dropping
	mustPanic(t, "Unref underflow", func() { r.Unref() })
}

// TestReferencesKeepRequestLive: intermediate Unrefs must not release while
// another leg still holds a reference; Completed stays readable throughout.
func TestReferencesKeepRequestLive(t *testing.T) {
	SetPoolChecks(true)
	defer SetPoolChecks(false)

	p := NewRequestPool()
	r := p.Get(2, 0, 0x30, 1, 0, discard{})
	r.Ref() // a second in-flight leg
	r.Complete(Result{Source: SourcePeer})
	r.Unref() // creator drops
	if !r.Completed() {
		t.Fatal("completed flag lost while a reference is held")
	}
	r.Unref() // last leg drops; only now may it recycle
	mustPanic(t, "Completed on released request", func() { r.Completed() })
}

// TestFreelistRecycles: a released request is the next one leased, with
// its per-lease state reset, and the tripwire
// still fires on the stale handle's successor once it is released again.
func TestFreelistRecycles(t *testing.T) {
	SetPoolChecks(true)
	defer SetPoolChecks(false)

	p := NewRequestPool()
	r := p.Get(1, 0, 0x10, 2, 5, discard{})
	r.Complete(Result{})
	r.Unref()

	r2 := p.Get(2, 0, 0x20, 3, 9, discard{})
	if r2 != r {
		t.Fatal("released request not reused from the freelist")
	}
	if r2.Completed() || r2.ID != 2 || r2.VPN != 0x20 || r2.Requester != 3 || r2.Issued != 9 {
		t.Fatalf("recycled request not reset: %+v", r2)
	}
	if r3 := p.Get(3, 0, 0x30, 0, 0, discard{}); r3 == r2 {
		t.Fatal("live request handed out twice")
	}

	r2.Unref()
	mustPanic(t, "Complete on released request", func() { r2.Complete(Result{}) })
}

// TestDoubleCompleteLoses: only the first Complete wins; the loser reports
// false and the completer runs once.
func TestDoubleCompleteLoses(t *testing.T) {
	n := 0
	r := NewRequest(5, 0, 0x60, 0, 0, func(Result) { n++ })
	if !r.Complete(Result{}) {
		t.Fatal("first Complete lost")
	}
	if r.Complete(Result{}) {
		t.Fatal("second Complete won")
	}
	if n != 1 {
		t.Fatalf("done ran %d times", n)
	}
}
