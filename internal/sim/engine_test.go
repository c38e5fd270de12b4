package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Post(10, HandlerFunc(func() { got = append(got, 2) }), EventArg{})
	e.Post(5, HandlerFunc(func() { got = append(got, 1) }), EventArg{})
	e.Post(20, HandlerFunc(func() { got = append(got, 3) }), EventArg{})
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %d, want 20", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Post(7, HandlerFunc(func() { got = append(got, i) }), EventArg{})
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events ran out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []VTime
	e.Post(1, HandlerFunc(func() {
		trace = append(trace, e.Now())
		e.Post(3, HandlerFunc(func() { trace = append(trace, e.Now()) }), EventArg{})
		e.Post(0, HandlerFunc(func() { trace = append(trace, e.Now()) }), EventArg{})
	}), EventArg{})
	e.Run()
	want := []VTime{1, 1, 4}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for _, d := range []VTime{5, 10, 15, 20} {
		e.Post(d, HandlerFunc(func() { ran++ }), EventArg{})
	}
	e.RunUntil(10)
	if ran != 2 {
		t.Fatalf("ran %d events by t=10, want 2", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	e.Run()
	if ran != 4 {
		t.Fatalf("ran %d events total, want 4", ran)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Post(1, HandlerFunc(func() { ran++; e.Stop() }), EventArg{})
	e.Post(2, HandlerFunc(func() { ran++ }), EventArg{})
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt engine: ran %d", ran)
	}
	e.Run() // resumes
	if ran != 2 {
		t.Fatalf("resume after Stop ran %d, want 2", ran)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Post(10, HandlerFunc(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.PostAt(5, HandlerFunc(func() {}), EventArg{})
	}), EventArg{})
	e.Run()
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Post(3, HandlerFunc(func() { n++ }), EventArg{})
	if !e.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if n != 1 || e.Now() != 3 {
		t.Fatalf("after Step: n=%d now=%d", n, e.Now())
	}
	if e.Step() {
		t.Fatal("Step returned true with no events")
	}
}

// Property: for any set of delays, events execute in nondecreasing time order
// and the engine processes all of them.
func TestEngineTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []VTime
		for _, d := range delays {
			d := VTime(d)
			e.Post(d, HandlerFunc(func() { times = append(times, e.Now()) }), EventArg{})
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoolSingleServerSerialises(t *testing.T) {
	p := NewPool(1)
	s1 := p.Acquire(0, 100)
	s2 := p.Acquire(0, 100)
	s3 := p.Acquire(250, 100)
	if s1 != 0 || s2 != 100 || s3 != 250 {
		t.Fatalf("starts = %d,%d,%d; want 0,100,250", s1, s2, s3)
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool(4)
	for i := 0; i < 4; i++ {
		if s := p.Acquire(0, 50); s != 0 {
			t.Fatalf("server %d start %d, want 0", i, s)
		}
	}
	if s := p.Acquire(0, 50); s != 50 {
		t.Fatalf("5th job start %d, want 50", s)
	}
}

// Property: a k-server pool never has more than k jobs in service at once,
// and starts are never before arrivals.
func TestPoolInvariants(t *testing.T) {
	f := func(seed int64, k8 uint8) bool {
		k := int(k8%8) + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewPool(k)
		type iv struct{ s, e VTime }
		var jobs []iv
		now := VTime(0)
		for i := 0; i < 200; i++ {
			now += VTime(rng.Intn(20))
			svc := VTime(rng.Intn(50) + 1)
			s := p.Acquire(now, svc)
			if s < now {
				return false
			}
			jobs = append(jobs, iv{s, s + svc})
		}
		// Check max concurrency k at every start point.
		for _, j := range jobs {
			conc := 0
			for _, o := range jobs {
				if o.s <= j.s && j.s < o.e {
					conc++
				}
			}
			if conc > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLine(t *testing.T) {
	var l Line
	s, e := l.Occupy(10, 5)
	if s != 10 || e != 15 {
		t.Fatalf("first occupy %d-%d, want 10-15", s, e)
	}
	s, e = l.Occupy(11, 5)
	if s != 15 || e != 20 {
		t.Fatalf("second occupy %d-%d, want 15-20", s, e)
	}
	if l.BusyCycles != 10 {
		t.Fatalf("BusyCycles = %d, want 10", l.BusyCycles)
	}
}

// relay is a self-rescheduling typed event: each dispatch posts the next one
// a pseudo-random 1..64 cycles ahead, so the queue keeps its depth. With far
// set, one post in 16 instead lands up to three wheel turns ahead, so a
// share of the traffic takes the overflow heap and its refill.
type relay struct {
	e    *Engine
	left int
	rng  uint64
	far  bool
}

func (r *relay) Event(EventArg) {
	r.left--
	if r.left == 0 {
		r.e.Stop()
	}
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	d := 1 + VTime(r.rng>>58)
	if r.far && r.rng>>54&15 == 0 {
		d = 1 + VTime(r.rng>>32)%(3*wheelSlots)
	}
	r.e.Post(d, r, EventArg{})
}

// relayDepth is the steady number of pending events in the relay
// benchmarks: the depth of the perfbench kernel probe, between the average
// (hundreds to low thousands) and peak (several thousand) pending counts of
// the Table I and 7x12 workloads.
const relayDepth = 4096

// benchRelay times one Post plus one dispatch at a steady queue depth.
func benchRelay(b *testing.B, far bool) {
	e := NewEngine()
	r := &relay{e: e, rng: 1, far: far}
	for i := 0; i < relayDepth; i++ {
		e.Post(VTime(i%64), r, EventArg{})
	}
	r.left = 4 * relayDepth // settle the delay mix and the slab size
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	r.left = b.N
	e.Run()
}

// BenchmarkEngineRelay: near-future delays only, the common case.
func BenchmarkEngineRelay(b *testing.B) { benchRelay(b, false) }

// BenchmarkEngineRelayFar adds delays up to 3x the wheel size.
func BenchmarkEngineRelayFar(b *testing.B) { benchRelay(b, true) }

func TestEngineNextTimeEmpty(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextTime(); ok {
		t.Error("NextTime on an empty queue reported ok")
	}
	e.Post(5, HandlerFunc(func() {}), EventArg{})
	if next, ok := e.NextTime(); !ok || next != 5 {
		t.Errorf("NextTime = %d, %v, want 5, true", next, ok)
	}
	e.Run()
	if _, ok := e.NextTime(); ok {
		t.Error("NextTime after drain reported ok")
	}
}

func TestEngineScheduleAtCurrentCycle(t *testing.T) {
	// Zero-delay events scheduled from a handler run later in the same
	// cycle, after already-queued same-cycle events, and PostAt(now) is legal.
	e := NewEngine()
	var order []string
	e.PostAt(10, HandlerFunc(func() {
		order = append(order, "first")
		e.Post(0, HandlerFunc(func() { order = append(order, "nested") }), EventArg{})
		e.PostAt(e.Now(), HandlerFunc(func() { order = append(order, "at-now") }), EventArg{})
	}), EventArg{})
	e.PostAt(10, HandlerFunc(func() { order = append(order, "second") }), EventArg{})
	e.Run()
	if e.Now() != 10 {
		t.Errorf("clock = %d, want 10", e.Now())
	}
	want := []string{"first", "second", "nested", "at-now"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineStopMidDrainDeterminism stops a run partway, resumes it, and
// checks the event order matches an uninterrupted run.
func TestEngineStopMidDrainDeterminism(t *testing.T) {
	build := func(e *Engine, log *[]int) {
		for i := 0; i < 20; i++ {
			i := i
			e.PostAt(VTime(i%7), HandlerFunc(func() {
				*log = append(*log, i)
				if i == 3 {
					e.Post(2, HandlerFunc(func() { *log = append(*log, 100+i) }), EventArg{})
				}
			}), EventArg{})
		}
	}

	var plain []int
	ep := NewEngine()
	build(ep, &plain)
	ep.Run()

	var sliced []int
	es := NewEngine()
	build(es, &sliced)
	for i := 0; es.Pending() > 0 && i < 1000; i++ {
		// Stop after every event: the worst-case drain interruption.
		es.PostAt(es.Now(), HandlerFunc(func() {}), EventArg{})
		es.Step()
		es.Stop()
		es.Run()
	}
	// Filter out the no-op stopper events' absence: sliced should contain
	// exactly the same payload sequence.
	if len(sliced) != len(plain) {
		t.Fatalf("sliced log %v != plain %v", sliced, plain)
	}
	for i := range plain {
		if sliced[i] != plain[i] {
			t.Fatalf("order diverged at %d: %v vs %v", i, sliced, plain)
		}
	}
}

func TestEngineSamplerBoundaries(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	for _, d := range []VTime{5, 12, 35, 35, 60} {
		e.PostAt(d, HandlerFunc(func() {}), EventArg{})
	}
	e.Run()
	// Boundaries fire only when an event at or past them runs: 10 before the
	// t=12 event; 20 and 30 before t=35; 40, 50 and 60 before t=60. No
	// boundary beyond the final event, and none at 0.
	want := []VTime{10, 20, 30, 40, 50, 60}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
}

func TestEngineSamplerObserveOnly(t *testing.T) {
	run := func(e *Engine) ([]int, uint64) {
		var log []int
		for i := 0; i < 30; i++ {
			i := i
			e.Post(VTime((i*13)%40), HandlerFunc(func() { log = append(log, i) }), EventArg{})
		}
		e.Run()
		return log, e.Processed
	}
	plain, plainN := run(NewEngine())
	es := NewEngine()
	fired := 0
	es.AttachSampler(7, func(VTime) { fired++ })
	sampled, sampledN := run(es)
	if plainN != sampledN {
		t.Fatalf("Processed %d with sampler vs %d without", sampledN, plainN)
	}
	if len(plain) != len(sampled) {
		t.Fatalf("event counts diverged: %d vs %d", len(sampled), len(plain))
	}
	for i := range plain {
		if plain[i] != sampled[i] {
			t.Fatalf("sampler perturbed order: %v vs %v", sampled, plain)
		}
	}
	if fired == 0 {
		t.Fatal("sampler never fired")
	}
}

func TestEngineSamplerSeesPreEventState(t *testing.T) {
	// The sampler at boundary b observes state as of the last event before b:
	// the engine clock has not advanced to the triggering event yet.
	e := NewEngine()
	var clockAtSample []VTime
	e.AttachSampler(10, func(at VTime) { clockAtSample = append(clockAtSample, e.Now()) })
	e.PostAt(4, HandlerFunc(func() {}), EventArg{})
	e.PostAt(25, HandlerFunc(func() {}), EventArg{})
	e.Run()
	// Boundaries 10 and 20 fire before the t=25 event, with the clock still 4.
	if len(clockAtSample) != 2 || clockAtSample[0] != 4 || clockAtSample[1] != 4 {
		t.Fatalf("engine clock at sample times = %v, want [4 4]", clockAtSample)
	}
}

func TestEngineSamplerStepAndDetach(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(5, func(at VTime) { samples = append(samples, at) })
	e.PostAt(7, HandlerFunc(func() {}), EventArg{})
	e.PostAt(13, HandlerFunc(func() {}), EventArg{})
	if !e.Step() { // fires boundary 5 before the t=7 event
		t.Fatal("Step returned false")
	}
	if len(samples) != 1 || samples[0] != 5 {
		t.Fatalf("samples after first Step = %v, want [5]", samples)
	}
	e.AttachSampler(0, nil) // detach
	e.Run()
	if len(samples) != 1 {
		t.Fatalf("detached sampler still fired: %v", samples)
	}
}

func TestEngineSamplerAttachMidRunAligns(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.PostAt(23, HandlerFunc(func() {
		// Attaching at t=23 with period 10 aligns the next boundary to 30 —
		// never a boundary in the past.
		e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	}), EventArg{})
	e.PostAt(31, HandlerFunc(func() {}), EventArg{})
	e.Run()
	if len(samples) != 1 || samples[0] != 30 {
		t.Fatalf("samples = %v, want [30]", samples)
	}
}

// TestEngineMetricsObserveOnly checks the dispatch counters the metrics
// publisher reads, Processed and the PeakPending high-water mark, on a run
// whose order they must not disturb.
func TestEngineMetricsObserveOnly(t *testing.T) {
	e := NewEngine()
	var log []int
	for i := 0; i < 10; i++ {
		i := i
		e.Post(VTime(10-i), HandlerFunc(func() { log = append(log, i) }), EventArg{})
	}
	e.Run()
	for i, v := range log {
		if v != 9-i {
			t.Fatalf("dispatch order %v", log)
		}
	}
	if e.Processed != 10 {
		t.Errorf("Processed = %d, want 10", e.Processed)
	}
	// The first dispatch leaves the other nine pending; nothing later
	// raises the mark.
	if e.PeakPending() != 9 {
		t.Errorf("PeakPending = %d, want 9", e.PeakPending())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending after drain = %d", e.Pending())
	}
}

// TestEngineSamplerLimitCutFiresTrailingBoundaries is the regression test for
// the sampler boundary gap: when RunUntil's limit cuts the run with events
// still pending, boundaries between the last executed event and the limit
// must fire — they used to be dropped, silently truncating time series.
func TestEngineSamplerLimitCutFiresTrailingBoundaries(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	e.PostAt(12, HandlerFunc(func() {}), EventArg{})
	e.PostAt(95, HandlerFunc(func() {}), EventArg{})
	e.RunUntil(47) // runs t=12, leaves t=95 pending
	want := []VTime{10, 20, 30, 40}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
	// Resuming past the limit must not double-fire: boundaries 50..90 fire
	// before the t=95 event, exactly once each.
	e.RunUntil(Infinity)
	if len(samples) != 9 || samples[4] != 50 || samples[8] != 90 {
		t.Fatalf("samples after resume = %v", samples)
	}
}

// TestEngineSamplerLimitCutMatchesSliced: a single RunUntil(limit) and the
// same run sliced into smaller RunUntil calls fire identical boundary sets —
// the property the wafer's cancellation slicing depends on.
func TestEngineSamplerLimitCutMatchesSliced(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		for _, d := range []VTime{3, 18, 44, 90} {
			e.PostAt(d, HandlerFunc(func() {}), EventArg{})
		}
		return e
	}
	var whole, sliced []VTime
	ew := build()
	ew.AttachSampler(10, func(at VTime) { whole = append(whole, at) })
	ew.RunUntil(65)
	es := build()
	es.AttachSampler(10, func(at VTime) { sliced = append(sliced, at) })
	for lim := VTime(5); lim <= 65; lim += 5 {
		es.RunUntil(lim)
	}
	if len(whole) != len(sliced) {
		t.Fatalf("whole %v vs sliced %v", whole, sliced)
	}
	for i := range whole {
		if whole[i] != sliced[i] {
			t.Fatalf("whole %v vs sliced %v", whole, sliced)
		}
	}
}

// TestEngineSamplerFarGap: the clock jumps over idle gaps longer than the
// wheel, so the next events come out of the overflow heap. Boundaries still
// fire one by one, before the event that passes them and with the clock at
// the previous event, and a RunUntil limit inside a gap fires exactly the
// boundaries up to the limit.
func TestEngineSamplerFarGap(t *testing.T) {
	type sample struct{ at, clock VTime }
	e := NewEngine()
	var got []sample
	e.AttachSampler(wheelSlots, func(at VTime) { got = append(got, sample{at, e.Now()}) })
	e.PostAt(5, HandlerFunc(func() {}), EventArg{})
	e.PostAt(3*wheelSlots+1, HandlerFunc(func() {
		e.Post(2*wheelSlots, HandlerFunc(func() {}), EventArg{}) // lands at 5*wheelSlots+1
	}), EventArg{})
	e.PostAt(3*wheelSlots+1, HandlerFunc(func() {}), EventArg{})
	e.RunUntil(2*wheelSlots + 7) // limit inside the first gap
	e.Run()
	want := []sample{
		{1 * wheelSlots, 5}, {2 * wheelSlots, 5}, // limit cut at 2*wheelSlots+7
		{3 * wheelSlots, 5},
		{4 * wheelSlots, 3*wheelSlots + 1}, {5 * wheelSlots, 3*wheelSlots + 1},
	}
	if len(got) != len(want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples = %v, want %v", got, want)
		}
	}
	if e.Now() != 5*wheelSlots+1 || e.Processed != 4 {
		t.Fatalf("clock %d, processed %d; want %d, 4", e.Now(), e.Processed, 5*wheelSlots+1)
	}
}

// TestEngineFlushSamples: a drained run leaves its trailing partial window
// open; FlushSamples closes it without firing anything twice.
func TestEngineFlushSamples(t *testing.T) {
	e := NewEngine()
	var samples []VTime
	e.AttachSampler(10, func(at VTime) { samples = append(samples, at) })
	e.PostAt(25, HandlerFunc(func() {}), EventArg{})
	e.Run()
	if len(samples) != 2 { // 10, 20 before the t=25 event
		t.Fatalf("samples before flush = %v", samples)
	}
	e.FlushSamples(30) // close the [20, 30) window the run ended inside
	if len(samples) != 3 || samples[2] != 30 {
		t.Fatalf("samples after flush = %v", samples)
	}
	e.FlushSamples(30) // idempotent
	e.FlushSamples(Infinity)
	if len(samples) != 3 {
		t.Fatalf("flush re-fired boundaries: %v", samples)
	}
	var detached Engine
	detached.FlushSamples(100) // no sampler: no-op, no panic
}
