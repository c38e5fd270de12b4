// Package sim provides the discrete-event simulation kernel used by every
// other component of the wafer-scale GPU model.
//
// Time is measured in GPU cycles (VTime). The Engine dispatches events in
// (time, sequence number) order: events posted for the same cycle run in
// posting order, which makes every simulation fully deterministic for
// a given input. The queue is a timing wheel with one FIFO slot per cycle
// for the next wheelSlots cycles, plus an overflow heap for the rare events
// scheduled further ahead, so posting and dispatching cost O(1) for the
// near-future events that make up almost all of a run.
//
// Every event is a Handler: Post and PostAt queue h.Event(arg), and nothing
// else does. Hot components post long-lived or pooled Handlers with a small
// EventArg payload, which allocates nothing per event — they schedule
// millions of events per simulated second. Cold paths and tests wrap a
// closure in HandlerFunc, paying the closure's allocation at its creation
// site (see docs/performance.md for the scheduling rules).
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// VTime is a point in simulated time, in cycles.
type VTime uint64

// Infinity is a time later than any event a simulation will ever schedule.
const Infinity VTime = math.MaxUint64

// EventArg is the payload of an event: an optional pointer (usually a
// pooled request or state-machine object) and two integer scratch words, so
// common payloads (a cacheline address, a drop count) need no allocation.
type EventArg struct {
	Ptr  any
	A, B uint64
}

// Handler is the one event form: Event is invoked at dispatch time with the
// argument the event was posted with. Implementations on hot paths are
// long-lived components or pooled per-request objects, so posting allocates
// nothing.
type Handler interface {
	Event(arg EventArg)
}

// HandlerFunc adapts a closure to Handler, for cold paths and tests. Func
// values are pointer-shaped, so the conversion itself does not allocate;
// the closure already did, where it was created.
type HandlerFunc func()

// Event implements Handler.
func (f HandlerFunc) Event(EventArg) { f() }

// Wheel geometry. Measured on the Table I and 7x12 workloads, at least 96%
// of posts land under 128 cycles ahead, at least 99.4% under 4096, and none
// at 8192 or more (docs/performance.md has the histogram). 4096 one-cycle
// slots therefore hold nearly every event, and the bitmap that finds the
// next busy slot is 64 words.
const (
	wheelSlots = 4096
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
	// heapArity: the overflow heap is 4-ary, halving tree depth versus
	// binary for a branch-predictable min-of-children scan.
	heapArity = 4
)

// event is one overflow-heap entry.
type event struct {
	time VTime
	seq  uint64
	h    Handler
	arg  EventArg
}

// before reports dispatch order: (time, seq) lexicographic. seq is unique,
// so the order is total.
func (e event) before(o event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// node is one wheel entry in the slab. next links the slot's FIFO list (or
// the free list); index 0 of the slab is reserved as the nil link, so the
// zero value of every list head is the empty list.
type node struct {
	h    Handler
	arg  EventArg
	next int32
}

// slot is one cycle's FIFO list of slab indices.
type slot struct{ head, tail int32 }

// Engine is a single-threaded discrete-event scheduler.
// The zero value is ready to use.
//
// Every wheel event's time lies in [now, now+wheelSlots), so each slot holds
// events of a single cycle, and every overflow event's time is at or beyond
// now+wheelSlots. When the clock advances to t, overflow events with time
// below t+wheelSlots move into the wheel in heap order before anything at t
// dispatches. An overflow event for cycle c was posted while the clock was
// at most c-wheelSlots, and a direct wheel post for c only once the clock
// passed that, so the overflow event has the smaller seq and reaches the
// slot first: each slot's FIFO order is seq order, and dispatch order is
// exactly (time, seq).
//
// The node slab and the overflow heap grow to the run's peak depth and never
// shrink; their storage is dropped with the engine, or kept by Reset for the
// next run. Freed nodes and popped heap slots are zeroed, so the queue keeps
// no dead Handler or Ptr references.
type Engine struct {
	now     VTime
	seq     uint64
	stopped bool

	slots   [wheelSlots]slot
	occ     [wheelWords]uint64 // bit s set iff slots[s] is non-empty
	slab    []node
	free    int32 // head of the slab's free list; 0 = empty
	inWheel int

	far []event // overflow 4-ary heap, (time, seq) ordered

	// Processed counts events executed so far; useful for progress reporting
	// and for bounding runaway simulations in tests.
	Processed uint64

	// peak is the most events left pending after any dispatch
	// (PeakPending).
	peak int

	// Periodic sampler (AttachSampler): fired between events at window
	// boundaries, never through the event queue, so an attached sampler
	// cannot perturb event order, Processed counts, or results.
	samplePeriod VTime
	sampleNext   VTime
	sampleFn     func(at VTime)
}

// wheelPush appends an event to the FIFO list of slot s.
func (e *Engine) wheelPush(s int, h Handler, arg EventArg) {
	i := e.free
	if i != 0 {
		e.free = e.slab[i].next
	} else {
		if len(e.slab) == 0 {
			e.slab = append(e.slab, node{}) // index 0: the nil link
		}
		i = int32(len(e.slab))
		e.slab = append(e.slab, node{})
	}
	n := &e.slab[i]
	n.h, n.arg, n.next = h, arg, 0
	sl := &e.slots[s]
	if sl.head == 0 {
		sl.head = i
		e.occ[s>>6] |= 1 << (s & 63)
	} else {
		e.slab[sl.tail].next = i
	}
	sl.tail = i
	e.inWheel++
}

// wheelPop removes the first event of the non-empty slot s.
func (e *Engine) wheelPop(s int) (Handler, EventArg) {
	sl := &e.slots[s]
	i := sl.head
	n := &e.slab[i]
	h, arg := n.h, n.arg
	sl.head = n.next
	if sl.head == 0 {
		e.occ[s>>6] &^= 1 << (s & 63)
	}
	n.h, n.arg = nil, EventArg{} // release Handler/Ptr references
	n.next = e.free
	e.free = i
	e.inWheel--
	return h, arg
}

// wheelNext returns the time of the earliest wheel event; the wheel must be
// non-empty. Slots are scanned circularly from the current cycle's.
func (e *Engine) wheelNext() VTime {
	cur := int(e.now & wheelMask)
	w := cur >> 6
	if word := e.occ[w] >> (cur & 63); word != 0 {
		return e.now + VTime(bits.TrailingZeros64(word))
	}
	for d := 1; d <= wheelWords; d++ {
		wi := (w + d) & (wheelWords - 1)
		if word := e.occ[wi]; word != 0 {
			s := wi<<6 + bits.TrailingZeros64(word)
			return e.now + VTime((s-cur)&wheelMask)
		}
	}
	panic("sim: wheel occupancy bitmap out of sync")
}

// refill moves every overflow event due before now+wheelSlots into the
// wheel, in heap order. Overflow times are never below now, so the
// subtraction cannot wrap, and it cannot overflow near Infinity either.
func (e *Engine) refill() {
	for len(e.far) > 0 && e.far[0].time-e.now < wheelSlots {
		ev := e.popFar()
		e.wheelPush(int(ev.time&wheelMask), ev.h, ev.arg)
	}
}

// pushFar sifts ev up from the bottom of the overflow heap.
func (e *Engine) pushFar(ev event) {
	h := append(e.far, ev)
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
	e.far = h
}

// popFar removes and returns the earliest overflow event.
func (e *Engine) popFar() event {
	h := e.far
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
	e.far = h
	return root
}

// AttachSampler arranges for fn to be called at every multiple of period
// cycles, between event executions — the periodic probe behind queue-depth
// and link-utilisation time series. Unlike a self-rescheduling event, the
// sampler never touches the event queue: before an event at time t runs, fn
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

// Reset returns the engine to the state NewEngine builds: time zero, no
// events, no sampler, zero counters. It keeps the node slab's and the
// overflow heap's capacity, so an engine that serves one run after another
// grows its queue once. Pending events are dropped with their Handler and
// Ptr references: a run cut off by its cycle limit leaves events queued.
func (e *Engine) Reset() {
	clear(e.slab)
	clear(e.far)
	*e = Engine{slab: e.slab[:0], far: e.far[:0]}
}

// Now returns the current simulated time.
func (e *Engine) Now() VTime { return e.now }

// Pending reports the number of events not yet executed.
func (e *Engine) Pending() int { return e.inWheel + len(e.far) }

// PeakPending returns the most events left pending after any dispatch:
// the high-water mark of Pending, counting the wheel and the overflow heap.
func (e *Engine) PeakPending() int { return e.peak }

// NextTime returns the time of the earliest pending event. ok is false when
// the queue is empty. Callers slicing a run with RunUntil (cancellation
// checks, progress reporting) use it to skip idle gaps in one step.
func (e *Engine) NextTime() (t VTime, ok bool) {
	if e.inWheel > 0 {
		return e.wheelNext(), true
	}
	if len(e.far) > 0 {
		return e.far[0].time, true
	}
	return 0, false
}

// Post runs h.Event(arg) after delay cycles (possibly zero, meaning later
// in the current cycle, after already-posted same-cycle events).
func (e *Engine) Post(delay VTime, h Handler, arg EventArg) {
	e.PostAt(e.now+delay, h, arg)
}

// PostAt runs h.Event(arg) at absolute time t. Posting in the past is a
// programming error and panics, since it would silently corrupt causality.
func (e *Engine) PostAt(t VTime, h Handler, arg EventArg) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	if t-e.now >= wheelSlots {
		e.pushFar(event{time: t, seq: e.seq, h: h, arg: arg})
		return
	}
	e.wheelPush(int(t&wheelMask), h, arg)
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
	for !e.stopped {
		t, ok := e.NextTime()
		if !ok {
			return
		}
		if t > limit {
			if e.sampleFn != nil && limit != Infinity {
				e.fireSamples(limit)
			}
			return
		}
		e.dispatch(t)
	}
}

// Step executes exactly one event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	t, ok := e.NextTime()
	if ok {
		e.dispatch(t)
	}
	return ok
}

// dispatch advances the clock to t, the earliest pending time, and runs the
// first event queued for it.
func (e *Engine) dispatch(t VTime) {
	if e.sampleFn != nil {
		e.fireSamples(t)
	}
	if t != e.now {
		e.now = t
		e.refill()
	}
	h, arg := e.wheelPop(int(t & wheelMask))
	e.Processed++
	if p := e.Pending(); p > e.peak {
		e.peak = p
	}
	h.Event(arg)
}

// Stop halts Run/RunUntil after the current event returns. Remaining events
// stay queued; a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }
