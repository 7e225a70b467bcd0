package fbuf

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"flexrpc/internal/clock"
)

// TestAllocBlockingContextExpired: a context already expired is
// rejected before any wait.
func TestAllocBlockingContextExpired(t *testing.T) {
	p, w, _, _ := threeDomainPath(16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AllocBlockingContext(ctx, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx = %v", err)
	}
	// The pool was untouched.
	if p.FreeCount() != 1 {
		t.Fatalf("free = %d", p.FreeCount())
	}
}

// TestAllocBlockingContextDeadline drives a parked allocator into a
// fake-clock deadline: the waiter must wake with DeadlineExceeded
// when the clock passes the deadline, never having seen a free
// buffer.
func TestAllocBlockingContextDeadline(t *testing.T) {
	p, w, _, _ := threeDomainPath(16, 1)
	held, err := p.Alloc(w)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFakeClock()
	ctx, cancel := clk.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	got := make(chan error, 1)
	go func() {
		_, err := p.AllocBlockingContext(ctx, w)
		got <- err
	}()
	// Let the waiter park on the exhausted pool, then fire the fake
	// deadline.
	time.Sleep(5 * time.Millisecond)
	clk.Advance(100 * time.Millisecond)
	select {
	case err := <-got:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("blocked alloc = %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke from the fake deadline")
	}
	if err := held.Free(w); err != nil {
		t.Fatal(err)
	}
}

// TestAllocBlockingContextUnblocksOnFree: with a live context the
// waiter gets the buffer the moment one is freed.
func TestAllocBlockingContextUnblocksOnFree(t *testing.T) {
	p, w, _, _ := threeDomainPath(16, 1)
	held, err := p.Alloc(w)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		b   *Buffer
		err error
	}
	got := make(chan res, 1)
	go func() {
		b, err := p.AllocBlockingContext(context.Background(), w)
		got <- res{b, err}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := held.Free(w); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("blocked alloc after free: %v", r.err)
		}
		if r.b == nil {
			t.Fatal("no buffer delivered")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke from the free")
	}
}

// TestAccessRulesUnderConcurrency is the -race witness for the fbuf
// access rules: while the owner legitimately produces, transfers and
// frees, other domains hammer the same buffer — and stale handles
// probe it across free/re-alloc cycles. Every illegal access must
// come back as an error; none may be a data race.
func TestAccessRulesUnderConcurrency(t *testing.T) {
	p, w, s, r := threeDomainPath(64, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Intruder: a domain that never legitimately owns the buffers it
	// touches, probing every mutating entry point through stale ByID
	// handles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := uint32(1); id <= 2; id++ {
				b, err := p.ByID(r, id)
				if err != nil {
					continue
				}
				if err := b.Produce(r, []byte("x")); err == nil {
					t.Error("intruder produce succeeded")
				}
				if _, err := b.Arena(r); err == nil {
					t.Error("intruder arena succeeded")
				}
				if err := b.SetProduced(r, 1); err == nil {
					t.Error("intruder set-produced succeeded")
				}
				if err := b.Transfer(r, w, false); err == nil {
					t.Error("intruder transfer succeeded")
				}
				if err := b.Free(r); err == nil {
					t.Error("intruder free succeeded")
				}
			}
		}
	}()

	// Owner: full legitimate lifecycles — alloc, produce in place,
	// transfer to the server domain, which reads and frees, returning
	// the buffer to the pool for re-allocation under the intruder's
	// nose.
	for i := 0; i < 2000; i++ {
		b, err := p.Alloc(w)
		if err != nil {
			t.Fatal(err)
		}
		arena, err := b.Arena(w)
		if err != nil {
			t.Fatal(err)
		}
		arena[0] = byte(i)
		if err := b.SetProduced(w, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.Transfer(w, s, false); err != nil {
			t.Fatal(err)
		}
		got, err := b.Bytes(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("iteration %d read %v", i, got)
		}
		if err := b.Free(s); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
