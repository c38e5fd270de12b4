package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// playLog is what one schedule's dispatch looked like from outside the
// engine: every event's time and schedule-stamped id, every sampler boundary,
// and the counters a run reads at its end.
type playLog struct {
	events    []dispatched
	samples   []VTime
	processed uint64
	peak      int
	now       VTime
	pending   int
}

// play drives e through a schedule drawn from rnd — up-front posts, posts
// from running events, some of them across the wheel horizon, Stop cuts,
// and RunUntil slices, with a sampler attached — until limit, or until the
// queue drains when limit is Infinity. Events are stamped with the
// schedule's own counter, so two engines fed the same rnd stream log the same
// ids exactly when they dispatch in the same order.
func play(e *Engine, rnd *rand.Rand, initial, nested int, limit VTime) playLog {
	var l playLog
	var id uint64
	e.AttachSampler(VTime(1+rnd.Intn(3000)), func(at VTime) { l.samples = append(l.samples, at) })
	var post func(at VTime)
	remaining := nested
	post = func(at VTime) {
		id++
		ev := dispatched{time: at, seq: id}
		if remaining > 0 && rnd.Intn(2) == 0 {
			remaining--
			e.PostAt(at, HandlerFunc(func() {
				l.events = append(l.events, dispatched{time: e.Now(), seq: ev.seq})
				post(drawTime(rnd, e.Now()))
			}), EventArg{})
			return
		}
		stop := rnd.Intn(8) == 0
		e.PostAt(at, HandlerFunc(func() {
			l.events = append(l.events, dispatched{time: e.Now(), seq: ev.seq})
			if stop {
				e.Stop()
			}
		}), EventArg{})
	}
	for range initial {
		post(drawTime(rnd, e.Now()+VTime(rnd.Intn(50))))
	}
	for {
		next, ok := e.NextTime()
		if !ok || next > limit {
			break
		}
		switch rnd.Intn(3) {
		case 0:
			e.Step()
		case 1:
			e.RunUntil(min(limit, next+VTime(rnd.Intn(10))))
		default:
			e.RunUntil(limit)
		}
	}
	l.processed, l.peak, l.now, l.pending = e.Processed, e.PeakPending(), e.Now(), e.Pending()
	return l
}

// checkResetMatchesNew runs a first schedule on one engine, cut at limit
// with events possibly still queued, resets it, and then plays a second
// schedule on it and on a new engine from equal random streams: the two
// must dispatch identically, sampler boundaries and counters included.
func checkResetMatchesNew(t *testing.T, seed int64, initial, nested int, limit VTime) {
	t.Helper()
	used := NewEngine()
	play(used, rand.New(rand.NewSource(seed)), initial, nested, limit)
	used.Reset()
	if used.Pending() != 0 || used.Now() != 0 || used.Processed != 0 || used.PeakPending() != 0 {
		t.Fatalf("reset engine: pending %d, now %d, processed %d, peak %d",
			used.Pending(), used.Now(), used.Processed, used.PeakPending())
	}
	for i, n := range used.slab[:cap(used.slab)] {
		if n != (node{}) {
			t.Fatalf("reset engine keeps slab node %d: %+v", i, n)
		}
	}
	for i, ev := range used.far[:cap(used.far)] {
		if ev != (event{}) {
			t.Fatalf("reset engine keeps overflow slot %d: %+v", i, ev)
		}
	}
	second := seed ^ 0x5eed
	got := play(used, rand.New(rand.NewSource(second)), initial, nested, Infinity)
	want := play(NewEngine(), rand.New(rand.NewSource(second)), initial, nested, Infinity)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reset engine dispatched %d events (processed %d, peak %d, now %d, %d samples); new engine %d (processed %d, peak %d, now %d, %d samples)",
			len(got.events), got.processed, got.peak, got.now, len(got.samples),
			len(want.events), want.processed, want.peak, want.now, len(want.samples))
	}
}

// TestEngineResetMatchesNew covers runs cut early, cut mid-way and run to
// the end before the reset.
func TestEngineResetMatchesNew(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, limit := range []VTime{0, 1, 40, 3 * wheelSlots, Infinity} {
			checkResetMatchesNew(t, seed, 30+int(seed), 20, limit)
		}
	}
}

// FuzzEngineResetMatchesNew is the fuzz form: a reset engine dispatches
// exactly like a new one, whatever the first run left queued.
func FuzzEngineResetMatchesNew(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), uint32(1))
	f.Add(int64(42), uint8(80), uint8(40), uint32(5000))
	f.Add(int64(7), uint8(3), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, initial, nested uint8, limit uint32) {
		checkResetMatchesNew(t, seed, int(initial)+1, int(nested), VTime(limit))
	})
}

// TestEngineResetKeepsCapacity: refilling a reset engine to the depth its
// last run reached allocates nothing.
func TestEngineResetKeepsCapacity(t *testing.T) {
	var sink uint64
	h := funcHandler{&sink}
	e := NewEngine()
	const depth = 5_000
	fill := func() {
		for i := 0; i < depth; i++ {
			e.Post(VTime(i%wheelSlots), h, EventArg{A: 1})
			e.Post(wheelSlots+VTime(i), h, EventArg{A: 1})
		}
		e.RunUntil(wheelSlots / 2) // cut with both queues still holding events
		e.Reset()
	}
	fill()
	if avg := testing.AllocsPerRun(5, fill); avg > 0 {
		t.Fatalf("refilling a reset engine allocates %.1f", avg)
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	var ref []int
	rnd := rand.New(rand.NewSource(1))
	next := 0
	for range 10_000 {
		if rnd.Intn(3) > 0 || len(ref) == 0 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("Pop = %d, want %d", got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(ref))
		}
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("cleared queue holds %d", q.Len())
	}
	for i, x := range q.buf {
		if x != 0 {
			t.Fatalf("cleared queue keeps slot %d = %d", i, x)
		}
	}
}

// A queue pushed and popped within the depth it reached allocates nothing,
// and popped slots hold no references.
func TestQueueKeepsStorage(t *testing.T) {
	var q Queue[*int]
	x := new(int)
	cycle := func() {
		for range 100 {
			q.Push(x)
		}
		for range 100 {
			q.Pop()
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg > 0 {
		t.Fatalf("steady-state push/pop allocates %.1f", avg)
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("popped slot %d keeps a reference", i)
		}
	}
}

func TestFreelist(t *testing.T) {
	type obj struct {
		p *int
		n int
	}
	var f Freelist[obj]
	a := f.Get()
	a.p, a.n = new(int), 3
	f.Put(a)
	if len(f.free) != 1 || a.p != nil || a.n != 0 {
		t.Fatalf("Put kept %+v, len %d", *a, len(f.free))
	}
	if b := f.Get(); b != a || len(f.free) != 0 {
		t.Fatal("Get did not reuse the released object")
	}
	if avg := testing.AllocsPerRun(100, func() { f.Put(f.Get()) }); avg > 0 {
		t.Fatalf("lease and release allocate %.1f", avg)
	}
}
