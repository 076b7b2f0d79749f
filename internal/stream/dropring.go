package stream

import (
	"sync"
	"time"
)

// DropRing is a fixed-capacity FIFO between producers and consumers that
// may run at different speeds, with two answers to a full ring: Push never
// blocks and drops the oldest queued item to make room, and PushDeadline
// (internal/transport's per-connection send queue) blocks until space
// frees or a deadline passes and then gives the new item back.
//
// All methods are safe for concurrent use by any number of producers and
// consumers. The zero value is not usable; call NewDropRing.
type DropRing[T any] struct {
	mu     sync.Mutex
	nempty *sync.Cond
	nfull  *sync.Cond
	buf    []T
	head   int // index of the oldest element
	n      int // queued count
	closed bool
}

// NewDropRing returns a ring holding at most cap items (cap < 1 is
// treated as 1).
func NewDropRing[T any](cap int) *DropRing[T] {
	if cap < 1 {
		cap = 1
	}
	r := &DropRing[T]{buf: make([]T, cap)}
	r.nempty = sync.NewCond(&r.mu)
	r.nfull = sync.NewCond(&r.mu)
	return r
}

// Push enqueues v without ever blocking. If the ring is full the oldest
// queued item is dropped to make room and Push returns true; it returns
// false when v was accepted without shedding, or after Close (the item
// is discarded — a closed ring sheds everything).
func (r *DropRing[T]) Push(v T) (dropped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return true
	}
	if r.n == len(r.buf) {
		// Overwrite the oldest slot: advance head past it.
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		dropped = true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	r.nempty.Signal()
	return dropped
}

// PushDeadline enqueues v, blocking while the ring is full until a
// consumer frees a slot or d elapses; d <= 0 never waits. Reports whether
// v was accepted — false means the deadline expired (or the ring closed)
// with the ring still full, and the caller owns the rejected item. Bounding the wait keeps cyclic producer/consumer
// meshes (node goroutines sending to each other) deadlock-free: a
// mutual stall resolves into sheds after d instead of hanging.
func (r *DropRing[T]) PushDeadline(v T, d time.Duration) (accepted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	if r.n == len(r.buf) {
		if d <= 0 {
			return false
		}
		timedOut := false
		t := time.AfterFunc(d, func() {
			r.mu.Lock()
			timedOut = true
			r.mu.Unlock()
			r.nfull.Broadcast()
		})
		defer t.Stop()
		for r.n == len(r.buf) && !r.closed && !timedOut {
			r.nfull.Wait()
		}
		if r.closed || r.n == len(r.buf) {
			return false
		}
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	r.nempty.Signal()
	return true
}

// PopMore dequeues the oldest item, blocking while the ring is empty,
// and reports whether anything was still queued behind it, read under the
// same lock: a consumer that batches (a write loop deciding whether to
// flush) learns it without a second call. It returns ok=false only when
// the ring has been closed and fully drained — queued items survive Close
// so a consumer can finish absorbing them.
func (r *DropRing[T]) PopMore() (v T, more, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 {
		if r.closed {
			return v, false, false
		}
		r.nempty.Wait()
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.nfull.Signal()
	return v, r.n > 0, true
}

// TryPop dequeues the oldest item without blocking; ok=false means the
// ring was empty (whether or not it is closed).
func (r *DropRing[T]) TryPop() (v T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.nfull.Signal()
	return v, true
}

// Close stops the ring accepting new items and wakes every blocked
// PopMore and PushDeadline. Items already queued remain poppable; Close is
// idempotent.
func (r *DropRing[T]) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.nempty.Broadcast()
	r.nfull.Broadcast()
}

// CloseDiscard closes the ring and throws away everything still queued,
// returning the discard count so the caller can settle its accounting
// (attempted == delivered + shed + discarded). Where Close hands queued
// items to the consumer for a graceful drain, CloseDiscard is the abrupt
// teardown: the consumer's next PopMore reports closed immediately instead
// of flushing frames to a socket that is about to disappear.
func (r *DropRing[T]) CloseDiscard() (discarded int) {
	r.mu.Lock()
	r.closed = true
	discarded = r.n
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)%len(r.buf)] = zero
	}
	r.head, r.n = 0, 0
	r.mu.Unlock()
	r.nempty.Broadcast()
	r.nfull.Broadcast()
	return discarded
}
