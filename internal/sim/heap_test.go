package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap is a reference priority queue built on the standard
// library's container/heap. The property tests below check that it and the
// engine's timing wheel (with its overflow heap) dispatch any schedule in the
// identical (time, seq) order.
type refEvent struct {
	time VTime
	seq  uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// dispatched records one executed engine event for order comparison.
type dispatched struct {
	time VTime
	seq  uint64
}

// recorder is a Handler that appends its EventArg.A (the seq stamped at
// schedule time) and the engine clock to the shared log. arg.B == 1 marks a
// stopper event: it halts the run from inside dispatch, and the driver loop
// resumes — Stop/resume must not perturb the order of the remaining queue.
type recorder struct {
	e   *Engine
	log *[]dispatched
}

func (r *recorder) Event(arg EventArg) {
	*r.log = append(*r.log, dispatched{time: r.e.Now(), seq: arg.A})
	if arg.B == 1 {
		r.e.Stop()
	}
}

// drawTime picks the time a post made at now lands on. Most posts land 0..3
// cycles ahead, so same-cycle collisions are common. The rest probe the
// wheel horizon: exactly 4095, 4096 or 4097 cycles ahead, several whole
// wheel turns ahead, or on an absolute multiple of the wheel size. Posts to
// the same multiple from different clocks collide in one cycle, some
// through the overflow heap and some straight into the wheel, which is the
// ordering case the refill must get right.
func drawTime(rnd *rand.Rand, now VTime) VTime {
	switch rnd.Intn(10) {
	case 0:
		return now + wheelSlots - 1 + VTime(rnd.Intn(3))
	case 1:
		return now + VTime(2+rnd.Intn(3))*wheelSlots
	case 2:
		return (now/wheelSlots+VTime(1+rnd.Intn(3)))*wheelSlots + VTime(rnd.Intn(2))
	default:
		return now + VTime(rnd.Intn(4))
	}
}

// runSchedule plays one randomized schedule through a fresh Engine and
// through the reference heap, and fails if the dispatch orders differ.
//
// The schedule is driven by rnd: a mix of up-front events, events scheduled
// from inside running events (same-cycle zero delays, the subtle ordering
// case, and delays across the wheel horizon), periodic Stop/resume cuts,
// and RunUntil limits that may fall inside a far idle gap.
func runSchedule(t *testing.T, rnd *rand.Rand, initial, nested int) {
	t.Helper()

	e := NewEngine()
	var got []dispatched
	rec := &recorder{e: e, log: &got}
	ref := &refHeap{}
	var refSeq uint64

	// post mirrors one logical event into both queues. The engine stamps
	// its own seq internally; we track the same numbering explicitly for
	// the reference (both start at 1 and increment per scheduling call).
	var post func(at VTime, remaining *int)
	post = func(at VTime, remaining *int) {
		refSeq++
		seq := refSeq
		heap.Push(ref, refEvent{time: at, seq: seq})
		arg := EventArg{A: seq}
		if *remaining > 0 && rnd.Intn(2) == 0 {
			*remaining--
			// Nested variant: on dispatch, record then schedule another
			// event at a random (possibly zero) delay — the same-cycle
			// collision case the (time, seq) order must resolve.
			e.PostAt(at, HandlerFunc(func() {
				rec.Event(arg)
				post(drawTime(rnd, e.Now()), remaining)
			}), EventArg{})
		} else {
			if rnd.Intn(8) == 0 {
				arg.B = 1 // stopper: Stop mid-run, driver resumes
			}
			e.PostAt(at, rec, arg)
		}
	}

	remaining := nested
	for i := 0; i < initial; i++ {
		post(drawTime(rnd, VTime(rnd.Intn(50))), &remaining)
	}

	// Interleave full runs with Stop/resume and bounded RunUntil slices.
	for e.Pending() > 0 {
		switch rnd.Intn(4) {
		case 0:
			// Stop after a random number of events, then resume.
			n := rnd.Intn(5) + 1
			cut := e.Processed + uint64(n)
			stopAt := e.Processed
			for e.Pending() > 0 && stopAt < cut {
				if !e.Step() {
					break
				}
				stopAt = e.Processed
			}
		case 1:
			if next, ok := e.NextTime(); ok {
				e.RunUntil(next + VTime(rnd.Intn(10)))
			}
		case 2:
			// A limit up to three wheel turns out: it often lands inside
			// an idle gap before a far event.
			e.RunUntil(e.Now() + VTime(rnd.Intn(3*wheelSlots)))
		default:
			e.Run()
		}
	}

	// Drain the reference queue.
	var want []dispatched
	for ref.Len() > 0 {
		ev := heap.Pop(ref).(refEvent)
		want = append(want, dispatched{time: ev.time, seq: ev.seq})
	}

	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: engine dispatched (t=%d seq=%d), reference (t=%d seq=%d)",
				i, got[i].time, got[i].seq, want[i].time, want[i].seq)
		}
	}
}

// TestHeapOrderProperty dispatches many randomized schedules — heavy on
// same-cycle collisions and on posts across the wheel horizon — and checks
// the engine agrees with container/heap on every one.
func TestHeapOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		runSchedule(t, rnd, 40+rnd.Intn(60), 30)
	}
}

// FuzzHeapOrder is the fuzz form of the same property, so the corpus can
// grow adversarial schedules beyond the fixed seeds above.
func FuzzHeapOrder(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10))
	f.Add(int64(42), uint8(80), uint8(40))
	f.Add(int64(7), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, initial, nested uint8) {
		if initial == 0 {
			initial = 1
		}
		rnd := rand.New(rand.NewSource(seed))
		runSchedule(t, rnd, int(initial), int(nested))
	})
}

// TestDrainedQueueRefillAllocs pins the queue's storage rule: the wheel's
// node slab and the overflow heap keep the capacity they grew to, so
// refilling a drained queue to its earlier depth allocates nothing, and the
// drained storage holds no dead Handler or Ptr references.
func TestDrainedQueueRefillAllocs(t *testing.T) {
	var sink uint64
	h := funcHandler{&sink}
	e := NewEngine()
	const depth = 10_000
	fill := func() {
		for i := 0; i < depth; i++ {
			e.Post(VTime(i%wheelSlots), h, EventArg{Ptr: e, A: 1}) // wheel
			e.Post(wheelSlots+VTime(i), h, EventArg{Ptr: e, A: 1}) // overflow heap
		}
		e.Run()
	}
	fill()
	if sink != 2*depth {
		t.Fatalf("ran %d events, want %d", sink, 2*depth)
	}
	for i, n := range e.slab {
		if n.h != nil || n.arg != (EventArg{}) {
			t.Fatalf("drained slab node %d keeps %+v", i, n)
		}
	}
	for i, ev := range e.far[:cap(e.far)] {
		if ev.h != nil || ev.arg != (EventArg{}) {
			t.Fatalf("drained overflow slot %d keeps %+v", i, ev)
		}
	}
	if avg := testing.AllocsPerRun(5, fill); avg > 0 {
		t.Fatalf("refilling a drained queue to depth %d allocates %.1f", depth, avg)
	}
}

// TestTypedEventAllocs verifies the event form's core promise: posting and
// dispatching a long-lived Handler does not allocate (beyond slab growth,
// which is warmed up first). A prebuilt HandlerFunc is such a Handler too:
// its closure is allocated once, not per post.
func TestTypedEventAllocs(t *testing.T) {
	var sink uint64
	for _, tc := range []struct {
		name string
		h    Handler
	}{
		{"typed", funcHandler{&sink}},
		{"HandlerFunc", HandlerFunc(func() { sink++ })},
	} {
		e := NewEngine()
		// Warm the node slab past the depth the batches below reach.
		for i := 0; i < 64; i++ {
			e.Post(VTime(i), tc.h, EventArg{A: uint64(i)})
		}
		e.Run()
		avg := testing.AllocsPerRun(100, func() {
			for i := 0; i < 32; i++ {
				e.Post(VTime(i), tc.h, EventArg{A: uint64(i)})
			}
			e.Run()
		})
		if avg > 0 {
			t.Fatalf("%s: post+dispatch allocates %.1f per batch", tc.name, avg)
		}
	}
}

type funcHandler struct{ sink *uint64 }

func (h funcHandler) Event(arg EventArg) { *h.sink += arg.A }
