package conformance

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"flexrpc/internal/netsim"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/faultconn"
	"flexrpc/internal/transport/suntcp"
)

// TestMatrixConcurrentClients is the multicore-scaling conformance
// cell: 8 client goroutines hammer one connection through the full
// robust stack — runtime.Client → RobustConn → faultconn (3% drops
// each way) → Sun RPC wire → concurrent worker-pool server →
// SHARDED at-most-once reply cache. The invariants must be exactly
// the ones the serial matrix pins: every reply reaches its caller
// un-cross-wired, the non-idempotent handler executes exactly once
// per successful call no matter how many retransmits the faults
// force, and the error taxonomy is unchanged.
func TestMatrixConcurrentClients(t *testing.T) {
	const goroutines = 8
	const callsPer = 30

	w := newWorld(t)
	sess := runtime.NewSessionServer(w.disp, w.plan(t),
		runtime.NewReplyCacheSharded(runtime.DefaultReplyCacheSize, goroutines))
	srv := suntcp.NewSessionServer(sess, w.p.Interface)
	srv.SetConcurrency(goroutines)
	t.Cleanup(func() { _ = srv.Drain(context.Background()) }) // stops the shared worker pool

	cc, sc := netsim.BufferedPipe(netsim.LinkParams{}, 64)
	go func() { _ = srv.ServeConn(sc) }()
	t.Cleanup(func() { cc.Close(); sc.Close() })

	// One shared session conn (RobustConn is concurrency-safe; the
	// Sun RPC client demultiplexes concurrent calls by xid), one
	// serializing runtime.Client per goroutine.
	faulty := faultconn.New(faultProfile()).Wrap(suntcp.Dial(cc, w.p))
	conn := runtime.NewRobustConn(faulty, w.p, robustOpts())
	t.Cleanup(func() { conn.Close() })

	var successes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := runtime.NewClient(w.p, runtime.XDRCodec, conn, confHooks{})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < callsPer; i++ {
				// Non-idempotent inout/out call with per-goroutine
				// payload: catches cross-wired replies AND feeds the
				// at-most-once witness.
				data := []byte{byte(g), byte(i), 3, 250}
				outs, _, err := client.Invoke("exchange", []runtime.Value{data, nil}, nil, nil)
				if err != nil {
					t.Errorf("g%d exchange %d: %v", g, i, err)
					return
				}
				if want := []byte{250, 3, byte(i), byte(g)}; !bytes.Equal(outs[0].([]byte), want) {
					t.Errorf("g%d exchange %d: got %v, want %v (cross-wired reply)", g, i, outs[0], want)
					return
				}
				if want := uint32(253) + uint32(g) + uint32(i); outs[1].(uint32) != want {
					t.Errorf("g%d exchange %d: sum %v, want %d", g, i, outs[1], want)
					return
				}
				successes.Add(1)

				// The error taxonomy must survive concurrency: a
				// handler error is still a RemoteError, nothing else.
				if _, _, err := client.Invoke("fail", []runtime.Value{"boom"}, nil, nil); classify(err) != "remote" {
					t.Errorf("g%d fail %d classified %q (%v), want remote", g, i, classify(err), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// At-most-once under concurrency: retransmits hit the sharded
	// cache, never the handler.
	if got := w.execs.Load(); got != successes.Load() {
		t.Fatalf("exchange executed %d times for %d successful calls", got, successes.Load())
	}
}
