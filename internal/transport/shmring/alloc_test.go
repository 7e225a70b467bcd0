package shmring

import (
	"bytes"
	"testing"

	"flexrpc/internal/runtime"
)

// The allocation gates pin the steady-state promise of the bind-time
// path: a null RPC over the ring — inline or through the doorbell
// handoff — allocates nothing once the pools are warm, and a bulk
// trusted put stays zero-alloc too (the payload is produced directly
// into the leased slot's arena).

func allocGate(t *testing.T, m mode, bound float64, f func(b *Bound)) {
	t.Helper()
	b, _ := connectMode(t, m, Config{})
	gateBound(t, m, b, bound, f)
}

func gateBound(t *testing.T, m mode, b *Bound, bound float64, f func(b *Bound)) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	for i := 0; i < 100; i++ {
		f(b) // warm the call, encoder and decoder pools
	}
	if allocs := testing.AllocsPerRun(200, func() { f(b) }); allocs > bound {
		t.Fatalf("%s allocates %.1f times per call, want <= %.0f", m.name, allocs, bound)
	}
}

func TestNullCallZeroAllocsInline(t *testing.T) {
	allocGate(t, modes()[0], 0, func(b *Bound) {
		if _, _, err := b.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNullCallZeroAllocsDoorbell(t *testing.T) {
	allocGate(t, modes()[1], 0, func(b *Bound) {
		if _, _, err := b.Invoke("nop", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// The 1KB trusted put costs exactly one allocation end to end —
// boxing the borrowed []byte slice header into the dispatcher's
// Value argument, the same single alloc the server message path
// gates in internal/runtime. The payload itself is produced into
// the slot arena and borrow-decoded in place, never copied.
func TestTrustedPutSingleAlloc(t *testing.T) {
	// args built once: the gate measures the call path, not the
	// caller's own argument boxing.
	args := []runtime.Value{bytes.Repeat([]byte{0x42}, 1024)}
	allocGate(t, modes()[1], 1, func(b *Bound) {
		if _, _, err := b.Invoke("put", args, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// The 4 KiB witnesses, on the default ring: a 4 KiB put encodes to
// 4100 bytes and a 4 KiB get reply to 4104, both more than one 4096-B
// slot holds once its 16-B header is in. The leased doorbell modes
// carry them in place in their leased buffers all the same, so a put
// keeps the 1 KiB put's single boxing allocation, a get pays only for
// decoding its result, and the ring's own pool is never touched.

func leasedDoorbellModes() []mode { return []mode{modes()[1], modes()[2]} }

// assertPoolUntouched checks that no call spliced through the ring's
// pool: every buffer is free and none ever got storage.
func assertPoolUntouched(t *testing.T, b *Bound) {
	t.Helper()
	if free := b.ring.path.FreeCount(); free != DefaultSlots {
		t.Fatalf("ring pool holds %d of %d buffers", free, DefaultSlots)
	}
	if n := b.ring.path.Materialized(); n != 0 {
		t.Fatalf("ring pool materialized %d buffers; leased calls must not splice", n)
	}
}

func TestLeased4KiBPutSingleAlloc(t *testing.T) {
	args := []runtime.Value{bytes.Repeat([]byte{0x42}, 4096)}
	for _, m := range leasedDoorbellModes() {
		t.Run(m.name, func(t *testing.T) {
			b, pr := connectMode(t, m, Config{})
			put := func(b *Bound) {
				if _, _, err := b.Invoke("put", args, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			put(b)
			if pr.putLen != 4096 {
				t.Fatalf("server saw %d bytes", pr.putLen)
			}
			assertPoolUntouched(t, b)
			gateBound(t, m, b, 1, put)
			assertPoolUntouched(t, b)
		})
	}
}

// A 4 KiB get allocates twice, both for the client's own decode of
// the result: the 4096-byte slice the bytes are copied into (the
// reply buffer is reused by the next call) and boxing it into the
// result Value. The server side allocates nothing.
func TestLeased4KiBGetOwnDecodeAllocs(t *testing.T) {
	blob := bytes.Repeat([]byte{0x5A}, 4096)
	for _, m := range leasedDoorbellModes() {
		t.Run(m.name, func(t *testing.T) {
			b, pr := connectMode(t, m, Config{})
			pr.getReply = blob
			get := func(b *Bound) {
				if _, _, err := b.Invoke("get", nil, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			_, ret, err := b.Invoke("get", nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ret.([]byte), blob) {
				t.Fatal("get returned the wrong bytes")
			}
			assertPoolUntouched(t, b)
			gateBound(t, m, b, 2, get)
			assertPoolUntouched(t, b)
		})
	}
}
