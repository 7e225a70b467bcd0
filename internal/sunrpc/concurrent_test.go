package sunrpc

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/stats"
	"flexrpc/internal/xdr"
)

const (
	procSlow  = 7
	procPanic = 8
	procBig   = 9
)

// TestConcurrentDispatchOverlaps proves SetConcurrency actually
// executes requests from one connection in parallel: a fast call
// issued after a deliberately blocked call completes while the slow
// one is still held, which inline dispatch cannot do.
func TestConcurrentDispatchOverlaps(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s := newTestServer()
	s.Register(procSlow, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		entered <- struct{}{}
		<-release
		reply.PutInt32(1)
		return nil
	})
	s.SetConcurrency(4)
	drainAtCleanup(t, s)

	cc, sc := net.Pipe()
	go func() { _ = s.ServeConn(sc) }()
	t.Cleanup(func() { cc.Close(); sc.Close() })
	c := NewClient(cc, testProg, testVers)

	slowDone := make(chan error, 1)
	go func() {
		slowDone <- c.Call(procSlow, nil, func(d *xdr.Decoder) error {
			_, err := d.Int32()
			return err
		})
	}()
	<-entered // the slow handler now owns one worker

	// A second call on the same connection must complete while the
	// slow one is parked.
	var sum int32
	err := c.Call(procAdd,
		func(e *xdr.Encoder) { e.PutInt32(20); e.PutInt32(22) },
		func(d *xdr.Decoder) error {
			v, err := d.Int32()
			sum = v
			return err
		})
	if err != nil || sum != 42 {
		t.Fatalf("fast call behind a blocked worker: %v, %v", sum, err)
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestConcurrentPanicRecovery is the worker-pool panic regression: a
// panicking handler must surface to its own caller as SYSTEM_ERR,
// increment the handler-panic counter, and leave the connection (and
// its worker siblings) serving.
func TestConcurrentPanicRecovery(t *testing.T) {
	for _, conc := range []int{1, 4} {
		s := newTestServer()
		s.Register(procPanic, func(args *xdr.Decoder, reply *xdr.Encoder) error {
			panic("handler bug")
		})
		e := stats.New(nil)
		s.SetStats(e)
		drainAtCleanup(t, s)
		s.SetConcurrency(conc)

		cc, sc := net.Pipe()
		go func() { _ = s.ServeConn(sc) }()
		c := NewClient(cc, testProg, testVers)

		err := c.Call(procPanic, nil, nil)
		var rerr *RemoteError
		if !errors.As(err, &rerr) || rerr.Stat != SystemErr {
			t.Fatalf("conc=%d: panic surfaced as %v, want SYSTEM_ERR", conc, err)
		}
		if got := e.Snapshot().HandlerPanics; got != 1 {
			t.Fatalf("conc=%d: handler panics counted %d, want 1", conc, got)
		}

		// The connection survived: an ordinary call still works.
		var sum int32
		err = c.Call(procAdd,
			func(enc *xdr.Encoder) { enc.PutInt32(1); enc.PutInt32(2) },
			func(d *xdr.Decoder) error {
				v, err := d.Int32()
				sum = v
				return err
			})
		if err != nil || sum != 3 {
			t.Fatalf("conc=%d: call after panic: %v, %v", conc, sum, err)
		}
		cc.Close()
		sc.Close()
	}
}

// TestConcurrentReplyCoalescing drives a burst of pipelined calls
// through a concurrent server and checks via the flush counters that
// replies were coalesced: strictly fewer flushes than records.
func TestConcurrentReplyCoalescing(t *testing.T) {
	const calls = 64
	s := newTestServer()
	e := stats.New(nil)
	s.SetStats(e)
	s.SetConcurrency(4)
	drainAtCleanup(t, s)

	cc, sc := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); _ = s.ServeConn(sc) }()
	c := NewClient(cc, testProg, testVers)

	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Call(procAdd,
				func(enc *xdr.Encoder) { enc.PutInt32(2); enc.PutInt32(3) },
				func(d *xdr.Decoder) error { _, err := d.Int32(); return err },
			); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Wind the connection down so every flush has been counted
	// before the snapshot (the writer counts after its Write).
	cc.Close()
	sc.Close()
	<-served

	snap := e.Snapshot()
	if snap.Queued != calls {
		t.Fatalf("queued %d requests, want %d", snap.Queued, calls)
	}
	if snap.FlushedRecords != calls {
		t.Fatalf("flushed %d records, want %d", snap.FlushedRecords, calls)
	}
	if snap.Flushes == 0 || snap.Flushes > snap.FlushedRecords {
		t.Fatalf("flushes = %d for %d records", snap.Flushes, snap.FlushedRecords)
	}
	// Coalescing is opportunistic — net.Pipe's synchronous writes
	// make it likely but not certain — so only log the achieved ratio.
	t.Logf("flushes=%d records=%d coalesced=%d",
		snap.Flushes, snap.FlushedRecords, snap.CoalescedWrites)
}

// rawNullCaller drives null RPCs over the wire with fully reused
// buffers, so the allocation gate below measures the server's
// concurrent path, not a client's bookkeeping.
type rawNullCaller struct {
	conn net.Conn
	enc  xdr.Encoder
	out  []byte
	rec  []byte
	xid  uint32
}

func (r *rawNullCaller) call(t testing.TB) {
	r.xid++
	r.enc.Reset()
	encodeCall(&r.enc, CallHeader{XID: r.xid, Prog: testProg, Vers: testVers, Proc: 0})
	r.out = appendRecord(r.out[:0], r.enc.Bytes())
	if _, err := r.conn.Write(r.out); err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(r.conn, r.rec)
	if err != nil {
		t.Fatal(err)
	}
	r.rec = rec[:cap(rec)]
}

// TestServerZeroAllocNullRPC is the 0-alloc gate over every way the
// server runs a connection: with stats off, the read driver,
// dispatch (inline or through the shared pool) and the combining
// flusher settle to zero allocations per null RPC.
func TestServerZeroAllocNullRPC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under the race detector")
	}
	rows := []struct {
		name        string
		concurrency int
		netpoll     bool
	}{
		{"serial", 1, false},
		{"shared", 4, false},
		{"netpoll", 4, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.netpoll && !netpoll.Supported() {
				t.Skip("netpoll unsupported on this platform")
			}
			s := newTestServer()
			s.SetConcurrency(row.concurrency)
			s.SetNetpoll(row.netpoll)
			drainAtCleanup(t, s)
			var cc, sc net.Conn
			if row.netpoll {
				cc, sc = socketpairConns(t)
			} else {
				cc, sc = net.Pipe()
			}
			go func() { _ = s.ServeConn(sc) }()
			t.Cleanup(func() { cc.Close() })

			caller := &rawNullCaller{conn: cc}
			for i := 0; i < 100; i++ {
				caller.call(t) // warm every pool and grow steady-state buffers
			}
			allocs := testing.AllocsPerRun(200, func() { caller.call(t) })
			if allocs != 0 {
				t.Fatalf("%s server path allocates %.2f times per null RPC, want 0", row.name, allocs)
			}
		})
	}
}

// TestConcurrentTailRepliesAfterHalfClose is the wait-for-flush
// regression: a pipelined client that half-closes its write side
// after a burst must still receive every reply. ServeConn may only
// return — and Serve may only close the conn — once the combining
// flusher has written everything this connection is owed, the
// shared-pool equivalent of the old writer-goroutine join.
func TestConcurrentTailRepliesAfterHalfClose(t *testing.T) {
	const calls = 64
	s := newTestServer()
	s.SetConcurrency(4)
	drainAtCleanup(t, s)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(l) }()
	t.Cleanup(func() { l.Close() })

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))

	var enc xdr.Encoder
	var out []byte
	for i := 0; i < calls; i++ {
		enc.Reset()
		encodeCall(&enc, CallHeader{XID: uint32(i + 1), Prog: testProg, Vers: testVers, Proc: 0})
		out = appendRecord(out, enc.Bytes())
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	// Half-close: the server reader sees EOF while replies may still
	// be executing or buffered behind the flusher.
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	var rec []byte
	for i := 0; i < calls; i++ {
		rec, err = readRecord(conn, rec)
		if err != nil {
			t.Fatalf("reply %d of %d: %v (tail replies dropped after half-close)", i, calls, err)
		}
		rec = rec[:cap(rec)]
	}
}

// TestConcurrentSlowReaderBoundedBuffering pins the reply-buffer
// bound: a client that pipelines requests for large replies without
// reading any must stall the server's reader once the pending-reply
// cap fills — bounding server memory and passing pushback to the
// peer's TCP stream — rather than buffering every executed reply.
// Once the client drains, everything it was owed still arrives.
func TestConcurrentSlowReaderBoundedBuffering(t *testing.T) {
	const calls = 100
	s := newTestServer()
	blob := make([]byte, 64<<10)
	s.Register(procBig, func(args *xdr.Decoder, reply *xdr.Encoder) error {
		reply.PutOpaque(blob)
		return nil
	})
	e := stats.New(nil)
	s.SetStats(e)
	s.SetConcurrency(4)
	drainAtCleanup(t, s)

	cc, sc := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); _ = s.ServeConn(sc) }()

	// Feed pipelined requests from a side goroutine: net.Pipe writes
	// are synchronous, so the feeder parks as soon as the server
	// reader does.
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		var enc xdr.Encoder
		var out []byte
		for i := 0; i < calls; i++ {
			enc.Reset()
			encodeCall(&enc, CallHeader{XID: uint32(i + 1), Prog: testProg, Vers: testVers, Proc: procBig})
			out = appendRecord(out[:0], enc.Bytes())
			if _, err := cc.Write(out); err != nil {
				return
			}
		}
	}()

	// With the client not reading, the first flush blocks (net.Pipe is
	// unbuffered), pending fills to the cap, and the reader parks:
	// the queued count must go quiet well short of the full burst.
	deadline := time.Now().Add(10 * time.Second)
	var queued, prev uint64
	stable := 0
	for stable < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("queued count never settled (last %d)", queued)
		}
		time.Sleep(50 * time.Millisecond)
		queued = e.Snapshot().Queued
		if queued == prev {
			stable++
		} else {
			stable, prev = 0, queued
		}
	}
	if queued == 0 || queued >= calls/2 {
		t.Fatalf("server queued %d of %d pipelined requests against a non-reading client; want a small bounded backlog", queued, calls)
	}

	// Drain: every reply the client is owed must still arrive.
	var rec []byte
	var err error
	for i := 0; i < calls; i++ {
		rec, err = readRecord(cc, rec)
		if err != nil {
			t.Fatalf("reply %d of %d after draining: %v", i, calls, err)
		}
		rec = rec[:cap(rec)]
	}
	<-fed
	cc.Close()
	sc.Close()
	<-served
}

// TestConcurrentServeConnShutdown checks the wind-down order: closing
// the connection mid-stream stops reader, workers and writer without
// leaking goroutines or deadlocking.
func TestConcurrentServeConnShutdown(t *testing.T) {
	s := newTestServer()
	s.Register(0, func(args *xdr.Decoder, reply *xdr.Encoder) error { return nil })
	s.SetConcurrency(4)
	drainAtCleanup(t, s)
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- s.ServeConn(sc) }()

	caller := &rawNullCaller{conn: cc}
	caller.call(t)
	cc.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeConn after peer close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after the peer closed")
	}
}
