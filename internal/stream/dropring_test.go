package stream

import (
	"sync"
	"testing"
)

// pop is the blocking read without PopMore's look behind.
func pop[T any](r *DropRing[T]) (T, bool) {
	v, _, ok := r.PopMore()
	return v, ok
}

func TestDropRingFIFO(t *testing.T) {
	r := NewDropRing[int](4)
	for i := 1; i <= 3; i++ {
		if r.Push(i) {
			t.Fatalf("push %d dropped below capacity", i)
		}
	}
	if r.n != 3 || len(r.buf) != 4 {
		t.Fatalf("len=%d cap=%d", r.n, len(r.buf))
	}
	for i := 1; i <= 3; i++ {
		v, ok := pop(r)
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("TryPop on empty ring returned ok")
	}
}

// TestDropRingPopMore pins what a batching consumer reads: more is true
// exactly while something is queued behind the item taken, and a closed
// ring still hands over what it holds before reporting the end.
func TestDropRingPopMore(t *testing.T) {
	r := NewDropRing[int](4)
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	r.Close()
	for i := 1; i <= 3; i++ {
		v, more, ok := r.PopMore()
		if !ok || v != i || more != (i < 3) {
			t.Fatalf("pop %d: got %d more=%v ok=%v", i, v, more, ok)
		}
	}
	if _, more, ok := r.PopMore(); ok || more {
		t.Fatalf("drained closed ring: more=%v ok=%v", more, ok)
	}
}

// TestDropRingDropsOldest pins the shedding semantics: pushing cap+k
// items drops exactly the k oldest, and the survivors pop in order.
func TestDropRingDropsOldest(t *testing.T) {
	r := NewDropRing[int](3)
	drops := 0
	for i := 1; i <= 5; i++ {
		if r.Push(i) {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("pushed cap+2, dropped %d", drops)
	}
	for want := 3; want <= 5; want++ {
		v, ok := pop(r)
		if !ok || v != want {
			t.Fatalf("want %d, got %d ok=%v", want, v, ok)
		}
	}
	if r.n != 0 {
		t.Fatalf("len=%d after draining", r.n)
	}
}

// TestDropRingWrapAround exercises the head wrapping the buffer edge
// repeatedly with mixed push/pop.
func TestDropRingWrapAround(t *testing.T) {
	r := NewDropRing[int](2)
	next := 0
	for round := 0; round < 10; round++ {
		r.Push(next)
		next++
		r.Push(next)
		next++
		a, _ := pop(r)
		b, _ := pop(r)
		if b != a+1 {
			t.Fatalf("round %d: popped %d then %d", round, a, b)
		}
	}
}

func TestDropRingCloseDrainsThenEnds(t *testing.T) {
	r := NewDropRing[string](4)
	r.Push("a")
	r.Push("b")
	r.Close()
	if !r.Push("c") {
		t.Fatal("push after close must report dropped")
	}
	if v, ok := pop(r); !ok || v != "a" {
		t.Fatalf("queued items must survive close: %q ok=%v", v, ok)
	}
	if v, ok := pop(r); !ok || v != "b" {
		t.Fatalf("queued items must survive close: %q ok=%v", v, ok)
	}
	if _, ok := pop(r); ok {
		t.Fatal("drained closed ring must end Pop")
	}
}

// TestDropRingCloseWakesBlockedPop ensures a consumer parked in Pop is
// released by Close rather than leaking.
func TestDropRingCloseWakesBlockedPop(t *testing.T) {
	r := NewDropRing[int](1)
	done := make(chan bool)
	go func() {
		_, ok := pop(r)
		done <- ok
	}()
	r.Close()
	if ok := <-done; ok {
		t.Fatal("Pop on closed empty ring returned ok")
	}
}

// TestDropRingConcurrent hammers the ring from parallel producers and
// consumers; under -race this pins the locking discipline, and the
// accounting must balance: every produced item is either consumed or
// dropped.
func TestDropRingConcurrent(t *testing.T) {
	const producers, perProducer = 4, 2000
	r := NewDropRing[int](64)
	var dropped, consumed sync.WaitGroup
	var mu sync.Mutex
	nDropped, nConsumed := 0, 0
	consumed.Add(2)
	for c := 0; c < 2; c++ {
		go func() {
			defer consumed.Done()
			for {
				if _, ok := pop(r); !ok {
					return
				}
				mu.Lock()
				nConsumed++
				mu.Unlock()
			}
		}()
	}
	dropped.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer dropped.Done()
			for i := 0; i < perProducer; i++ {
				if r.Push(i) {
					mu.Lock()
					nDropped++
					mu.Unlock()
				}
			}
		}()
	}
	dropped.Wait()
	r.Close()
	consumed.Wait()
	if nConsumed+nDropped != producers*perProducer {
		t.Fatalf("accounting: consumed %d + dropped %d != produced %d",
			nConsumed, nDropped, producers*perProducer)
	}
}
