package stream

import (
	"sync"
	"testing"
	"time"
)

// PushDeadline must accept immediately when the ring has room, reject a
// full ring once the deadline passes, and succeed when a consumer frees
// a slot before the deadline.
func TestDropRingPushDeadline(t *testing.T) {
	r := NewDropRing[int](1)
	if !r.PushDeadline(1, time.Second) {
		t.Fatal("push into empty ring rejected")
	}
	if r.PushDeadline(2, 5*time.Millisecond) {
		t.Fatal("push into full ring accepted with no consumer")
	}
	if r.PushDeadline(2, 0) {
		t.Fatal("zero deadline on a full ring must reject immediately")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		if v, ok := r.TryPop(); !ok || v != 1 {
			t.Errorf("consumer popped (%d, %v), want (1, true)", v, ok)
		}
	}()
	if !r.PushDeadline(3, 5*time.Second) {
		t.Fatal("push rejected although a consumer freed a slot")
	}
	wg.Wait()
	if v, ok := r.TryPop(); !ok || v != 3 {
		t.Fatalf("popped (%d, %v), want (3, true)", v, ok)
	}
}

// Both pushes must refuse a closed ring.
func TestDropRingPushPoliciesAfterClose(t *testing.T) {
	r := NewDropRing[int](4)
	r.Push(1)
	r.Close()
	if !r.Push(9) {
		t.Fatal("Push accepted on closed ring")
	}
	if r.PushDeadline(9, time.Second) {
		t.Fatal("PushDeadline accepted on closed ring")
	}
	// Queued items still drain.
	if v, ok := pop(r); !ok || v != 1 {
		t.Fatalf("Pop after close = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := pop(r); ok {
		t.Fatal("Pop on drained closed ring reported ok")
	}
}

// Close must wake a producer blocked in PushDeadline.
func TestDropRingCloseWakesBlockedPush(t *testing.T) {
	r := NewDropRing[int](1)
	r.Push(1)
	done := make(chan bool, 1)
	go func() {
		done <- r.PushDeadline(2, time.Minute)
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case accepted := <-done:
		if accepted {
			t.Fatal("PushDeadline accepted after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PushDeadline still blocked after Close")
	}
}

// CloseDiscard is the abrupt teardown: everything queued is thrown away
// and accounted, consumers wake immediately, producers shed.
func TestDropRingCloseDiscard(t *testing.T) {
	r := NewDropRing[int](8)
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	if n := r.CloseDiscard(); n != 5 {
		t.Fatalf("CloseDiscard discarded %d, want 5", n)
	}
	if _, ok := pop(r); ok {
		t.Fatal("Pop returned an item after CloseDiscard")
	}
	if !r.Push(9) {
		t.Fatal("Push accepted on a discarded ring")
	}
	if r.PushDeadline(9, time.Second) {
		t.Fatal("PushDeadline accepted on a discarded ring")
	}
	if n := r.CloseDiscard(); n != 0 {
		t.Fatalf("second CloseDiscard discarded %d, want 0", n)
	}
}

// A Pop blocked on an empty ring wakes when CloseDiscard lands.
func TestDropRingCloseDiscardWakesPop(t *testing.T) {
	r := NewDropRing[int](4)
	done := make(chan bool, 1)
	go func() {
		_, ok := pop(r)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	r.CloseDiscard()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("blocked Pop produced an item from a discarded ring")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Pop never woke after CloseDiscard")
	}
}

// Close keeps queued items poppable; CloseDiscard does not — the two
// teardown flavours a draining vs. dying transport connection needs.
func TestDropRingCloseVsCloseDiscard(t *testing.T) {
	g := NewDropRing[int](4)
	g.Push(1)
	g.Close()
	if v, ok := pop(g); !ok || v != 1 {
		t.Fatalf("graceful Close lost a queued item: %d, %v", v, ok)
	}
	d := NewDropRing[int](4)
	d.Push(1)
	d.CloseDiscard()
	if _, ok := d.TryPop(); ok {
		t.Fatal("CloseDiscard left a queued item poppable")
	}
}
