// Package sim provides the discrete-event simulation kernel used by every
// other component of the wafer-scale GPU model.
//
// Time is measured in GPU cycles (VTime). The Engine maintains an inlined
// 4-ary heap of typed events ordered by (time, sequence number); events
// scheduled for the same cycle run in scheduling order, which makes every
// simulation fully deterministic for a given input.
//
// Events come in two forms. The closure form (Schedule/At) is convenient
// and right for cold paths and tests; it costs one closure allocation per
// event at the call site. The typed form (Post/PostAt) carries a Handler —
// typically a pooled, long-lived component or request object — plus a small
// EventArg payload, and allocates nothing: hot components schedule millions
// of events per simulated second, so the per-event closure was the kernel's
// dominant allocation source (see docs/performance.md for the scheduling
// rules).
package sim

import (
	"fmt"
	"math"

	"hdpat/internal/metrics"
)

// VTime is a point in simulated time, in cycles.
type VTime uint64

// Infinity is a time later than any event a simulation will ever schedule.
const Infinity VTime = math.MaxUint64

// EventArg is the payload of a typed event: an optional pointer (usually a
// pooled request or state-machine object) and two integer scratch words, so
// common payloads (a cacheline address, a generation counter, a drop count)
// need no allocation.
type EventArg struct {
	Ptr  any
	A, B uint64
}

// Handler is the typed event form: Event is invoked at dispatch time with
// the argument the event was posted with. Implementations are long-lived
// components or pooled per-request objects, so posting a typed event
// allocates nothing.
type Handler interface {
	Event(arg EventArg)
}

// funcEvent adapts a closure to Handler. Func values are pointer-shaped, so
// the interface conversion itself does not allocate (the closure already
// did, at its creation site).
type funcEvent func()

// Event implements Handler.
func (f funcEvent) Event(EventArg) { f() }

// event is one heap entry.
type event struct {
	time VTime
	seq  uint64
	h    Handler
	arg  EventArg
}

// before reports dispatch order: (time, seq) lexicographic. seq is unique,
// so the order is total and any correct heap yields the same dispatch
// sequence as the previous container/heap kernel.
func (e event) before(o event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Heap geometry: a 4-ary heap halves tree depth versus binary, trading a
// wider (branch-predictable, cache-resident) min-of-children scan for fewer
// sift levels — the standard layout for event-driven simulators where pops
// dominate.
const (
	heapArity = 4
	// minHeapCap is the slice capacity below which the drained heap is
	// never shrunk; release below this buys nothing.
	minHeapCap = 64
)

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now     VTime
	seq     uint64
	events  []event
	stopped bool

	// Processed counts events executed so far; useful for progress reporting
	// and for bounding runaway simulations in tests.
	Processed uint64

	// m mirrors dispatch activity into an attached metrics registry; nil
	// (the default) costs one branch per event.
	m *engineMetrics

	// Periodic sampler (AttachSampler): fired between events at window
	// boundaries, never through the event heap, so an attached sampler
	// cannot perturb event order, Processed counts, or results.
	samplePeriod VTime
	sampleNext   VTime
	sampleFn     func(at VTime)
}

// pushEvent sifts ev up from the bottom of the heap.
func (e *Engine) pushEvent(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// popEvent removes and returns the earliest event, releasing surplus slice
// capacity left over from a depth spike: once occupancy falls to a quarter
// of capacity the backing array is reallocated at half size, so a burst
// that briefly queued millions of events does not pin their storage for the
// rest of the run. The shrink copies len elements at most every len pops,
// keeping the amortized cost O(1).
func (e *Engine) popEvent() event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release Handler/Ptr references
	h = h[:n]
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := i*heapArity + 1
			if c >= n {
				break
			}
			end := c + heapArity
			if end > n {
				end = n
			}
			best := c
			for j := c + 1; j < end; j++ {
				if h[j].before(h[best]) {
					best = j
				}
			}
			if !h[best].before(last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	if c := cap(h); c > minHeapCap && n <= c/4 {
		shrunk := make([]event, n, c/2)
		copy(shrunk, h)
		h = shrunk
	}
	e.events = h
	return root
}

// engineMetrics are the engine's registry series.
type engineMetrics struct {
	events *metrics.Counter
	heap   *metrics.Gauge
	peak   *metrics.Gauge
}

// AttachMetrics mirrors the engine's dispatch activity into reg:
// sim.events_dispatched (counter), sim.heap_depth (gauge, pending events
// after the latest dispatch) and sim.heap_peak (gauge, deepest heap seen).
// Attaching does not perturb event order — metrics only observe.
func (e *Engine) AttachMetrics(reg *metrics.Registry) {
	e.m = &engineMetrics{
		events: reg.Counter("sim.events_dispatched"),
		heap:   reg.Gauge("sim.heap_depth"),
		peak:   reg.Gauge("sim.heap_peak"),
	}
}

// note records one dispatched event in the attached registry.
func (m *engineMetrics) note(pending int) {
	m.events.Inc()
	m.heap.Set(int64(pending))
	m.peak.Max(int64(pending))
}

// AttachSampler arranges for fn to be called at every multiple of period
// cycles, between event executions — the periodic probe behind queue-depth
// and link-utilisation time series. Unlike a self-rescheduling event, the
// sampler never touches the event heap: before an event at time t runs, fn
// fires once for each elapsed boundary <= t (in boundary order), observing
// simulator state as of the previous event. fn receives the boundary time
// (the engine clock has not advanced yet) and must only read state — it must
// not schedule events or mutate components, so a sampled run is identical to
// an unsampled one. A zero period or nil fn detaches the sampler.
func (e *Engine) AttachSampler(period VTime, fn func(at VTime)) {
	if period == 0 || fn == nil {
		e.samplePeriod, e.sampleFn = 0, nil
		return
	}
	e.samplePeriod = period
	e.sampleNext = (e.now/period + 1) * period
	e.sampleFn = fn
}

// fireSamples invokes the sampler for every boundary at or before upto.
func (e *Engine) fireSamples(upto VTime) {
	for e.sampleNext <= upto {
		e.sampleFn(e.sampleNext)
		e.sampleNext += e.samplePeriod
	}
}

// FlushSamples fires any sampler boundaries at or before upto that have not
// fired yet, in boundary order. RunUntil fires boundaries only up to executed
// events (and, when the limit cuts a run with events still pending, up to the
// limit), so a run that settles mid-window leaves its trailing time-series
// windows unsampled; callers close them by flushing up to the run's logical
// end time. A no-op without an attached sampler; upto must be finite.
func (e *Engine) FlushSamples(upto VTime) {
	if e.sampleFn == nil || upto == Infinity {
		return
	}
	e.fireSamples(upto)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() VTime { return e.now }

// Pending reports the number of events not yet executed.
func (e *Engine) Pending() int { return len(e.events) }

// NextTime returns the time of the earliest pending event. ok is false when
// the queue is empty. Callers slicing a run with RunUntil (cancellation
// checks, progress reporting) use it to skip idle gaps in one step.
func (e *Engine) NextTime() (t VTime, ok bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].time, true
}

// Schedule runs fn after delay cycles (possibly zero, meaning later in the
// current cycle, after already-scheduled same-cycle events). The closure
// form: convenient, one allocation per event at the call site. Hot paths
// use Post.
func (e *Engine) Schedule(delay VTime, fn func()) {
	e.AtH(e.now+delay, funcEvent(fn), EventArg{})
}

// At runs fn at absolute time t. Scheduling in the past is a programming
// error and panics, since it would silently corrupt causality.
func (e *Engine) At(t VTime, fn func()) {
	e.AtH(t, funcEvent(fn), EventArg{})
}

// Post runs h.Event(arg) after delay cycles: the typed, allocation-free
// event form. Ordering is identical to Schedule — one shared sequence
// counter covers both forms.
func (e *Engine) Post(delay VTime, h Handler, arg EventArg) {
	e.AtH(e.now+delay, h, arg)
}

// PostAt runs h.Event(arg) at absolute time t.
func (e *Engine) PostAt(t VTime, h Handler, arg EventArg) {
	e.AtH(t, h, arg)
}

// AtH is the single scheduling entry point both forms funnel through.
func (e *Engine) AtH(t VTime, h Handler, arg EventArg) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.pushEvent(event{time: t, seq: e.seq, h: h, arg: arg})
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Infinity)
}

// RunUntil executes events with time <= limit. Events scheduled exactly at
// limit do run. On return the engine clock is the time of the last executed
// event (or unchanged if none ran).
//
// When the limit cuts the run — events remain beyond limit — the run has
// logically advanced to limit, so any sampler boundaries in (last event,
// limit] fire before returning; they would otherwise be lost, silently
// truncating time series. A drained queue fires nothing extra (the run ended
// at the last event); use FlushSamples to close a trailing partial window.
func (e *Engine) RunUntil(limit VTime) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].time > limit {
			if e.sampleFn != nil && limit != Infinity {
				e.fireSamples(limit)
			}
			return
		}
		ev := e.popEvent()
		if e.sampleFn != nil {
			e.fireSamples(ev.time)
		}
		e.now = ev.time
		e.Processed++
		if e.m != nil {
			e.m.note(len(e.events))
		}
		ev.h.Event(ev.arg)
	}
}

// Step executes exactly one event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.popEvent()
	if e.sampleFn != nil {
		e.fireSamples(ev.time)
	}
	e.now = ev.time
	e.Processed++
	if e.m != nil {
		e.m.note(len(e.events))
	}
	ev.h.Event(ev.arg)
	return true
}

// Stop halts Run/RunUntil after the current event returns. Remaining events
// stay queued; a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }
