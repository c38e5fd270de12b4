package sim

// Freelist recycles the pooled objects of one type — per-request state
// machines that are their own Handlers. Get returns a zeroed object, new
// or released earlier; Put zeroes the object and keeps it. A freelist
// serves one goroutine, like the engine: a run's components lease and
// release on the run's goroutine, and a list handed from one run to the
// next (a recycling store in internal/wafer) serves one run at a time. The
// zero value is an empty list.
type Freelist[T any] struct {
	free []*T
}

// Get leases an object. Its fields are zero.
func (f *Freelist[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		return new(T)
	}
	x := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return x
}

// Put zeroes x, dropping its references, and keeps it for a later Get.
// Nothing may use x afterwards.
func (f *Freelist[T]) Put(x *T) {
	var zero T
	*x = zero
	f.free = append(f.free, x)
}

// Queue is a FIFO that keeps its storage: a ring buffer that doubles when
// full and never shrinks, so a queue pushed and popped in steady state
// allocates nothing (a slice popped with q = q[1:] walks off its own
// storage, and append reallocates). Pop zeroes the slot it empties. The
// zero value is an empty queue.
type Queue[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends x at the back.
func (q *Queue[T]) Push(x T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = x
	q.n++
}

// Pop removes and returns the front element; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on an empty Queue")
	}
	var zero T
	x := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return x
}

// Clear empties the queue, zeroing its elements, and keeps the storage.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// grow doubles the storage, unrolling the ring to start at index 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
