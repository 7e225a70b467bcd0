package sunrpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"flexrpc/internal/netpoll"
)

// One per-connection core, srvConn, serves every connection. Two read
// drivers feed it, and they differ only in how bytes arrive:
//
//   - the blocking reader (readStream) runs on the ServeConn goroutine
//     (or one Serve starts per connection) and reads each record
//     straight into a pooled holder; an idle connection costs that
//     goroutine and pins no scratch buffer;
//   - netpoll readiness (pollRead, netpoll.go) reads into a pooled
//     scratch buffer on a poller wakeup and pushes the bytes through
//     the connection's recordAssembler; an idle connection costs no
//     goroutine.
//
// Either driver submits each complete record — to the shared worker
// pool, or inline on the driver when the connection has none — and
// every reply leaves through the combining flusher (enqueueReply). The
// read states below give both drivers one pending-cap backpressure and
// one teardown.

// Read states. Exactly one goroutine drives reads at a time: the one
// that set rActive under mu.
const (
	rIdle   = iota // netpoll: registered, waiting for a readiness edge
	rActive        // a driver is reading
	rPaused        // over the pending-reply cap; resumed by the flusher
	rDone          // read side finished (EOF, error, or close)
)

// srvConnMaxPending caps the bytes of finished replies buffered on one
// connection awaiting flush. A driver parks the connection (rPaused)
// before taking the next record while pending is over the cap, so a
// slow-reading client that keeps pipelining requests stalls its own
// reads — TCP pushes back on the peer — and pins O(cap + in-flight
// jobs) server memory instead of growing without bound. The cap gates
// the reads rather than the pool workers so one slow client can never
// park the shared pool.
const srvConnMaxPending = 256 << 10

// aLongTimeAgo is a past deadline used to unpark blocked writers.
var aLongTimeAgo = time.Unix(1, 0)

// srvConn is the state of one served connection. It owns no
// goroutine: reads run on its driver, dispatches on pool workers (or
// inline), and replies are flushed by whichever goroutine queues one
// while no flush is running.
type srvConn struct {
	srv  *Server
	conn net.Conn
	pool *workerPool     // nil: dispatch inline on the driver
	pl   *netpoll.Poller // non-nil: the netpoll driver reads fd
	fd   int             // valid only with pl

	// Netpoll reassembly, touched only by the goroutine owning rActive.
	asm    recordAssembler
	holder *[]byte // pooled holder of asm.rec mid-record; nil between records
	carry  []byte  // read bytes not yet ingested when the pending cap tripped

	mu        sync.Mutex
	pending   []byte // record-marked replies awaiting the flusher
	queued    int    // reply count inside pending
	spare     []byte // previous flush buffer, recycled on swap
	flushing  bool   // some goroutine currently owns this connection's flush
	werr      error  // first write error; poisons the stream
	rstate    int
	rearm     bool  // netpoll: an edge arrived while rActive; drain again before idling
	closing   bool  // Drain or a write error: the read side must wind down
	njobs     int   // records submitted, replies not yet flushed or discarded
	needClose bool  // close requested under mu; settleLocked performs it
	tornDown  bool  // finish ran (or is about to); guards double teardown
	err       error // terminal status reported by ServeConn

	closeOnce sync.Once
	done      chan struct{} // closed by finish; ServeConn parks here
}

// attach is the one attach path: it builds nc's state, registers it
// with a poller when netpoll applies, joins the shared pool when the
// connection dispatches through it, and tracks it for Drain. It
// returns nil (and closes nc) once the server is draining. The new
// conn starts rActive: the caller owns the first read pass (c.read).
func (s *Server) attach(nc net.Conn) *srvConn {
	c := &srvConn{srv: s, conn: nc, rstate: rActive, done: make(chan struct{})}
	c.asm.limit = s.MaxMessageSize
	if s.netpoll {
		c.register()
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		c.closeFD()
		return nil
	}
	if c.pl != nil || s.concurrency > 1 {
		if s.pool == nil {
			s.pool = newWorkerPool(max(s.concurrency, 1))
		}
		c.pool = s.pool
	}
	if s.conns == nil {
		s.conns = make(map[*srvConn]struct{})
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	return c
}

// read runs the connection's driver until it idles, pauses at the
// pending cap, or finishes the read side.
func (c *srvConn) read() {
	if c.pl != nil {
		c.pollRead()
	} else {
		c.readStream()
	}
}

// readStream is the blocking read driver: it reads each record
// straight into a pooled holder, parking in conn.Read while the peer
// is idle.
func (c *srvConn) readStream() {
	var w *worker
	if c.pool == nil {
		w = newWorker()
	}
	for c.readable() {
		holder := c.srv.holders.Get().(*[]byte)
		rec, err := readRecordLimit(c.conn, *holder, c.srv.MaxMessageSize)
		if err != nil {
			c.srv.holders.Put(holder)
			c.mu.Lock()
			c.finishReadLocked(readErr(err))
			return
		}
		*holder = rec
		c.submit(holder, w)
	}
}

// readable reports whether the driver may take the next record.
// Otherwise it has parked the connection at the pending cap (rPaused;
// the flusher resumes it) or, once the connection is closing,
// finished the read side.
func (c *srvConn) readable() bool {
	c.mu.Lock()
	if c.closing {
		c.finishReadLocked(nil)
		return false
	}
	if len(c.pending) > srvConnMaxPending {
		c.rstate = rPaused
		c.mu.Unlock()
		return false
	}
	c.mu.Unlock()
	return true
}

// submit hands one complete record to the shared pool, or dispatches
// it inline on w when the connection has no pool. It reports whether
// the pending replies were over the cap when the record arrived.
func (c *srvConn) submit(holder *[]byte, w *worker) bool {
	c.mu.Lock()
	c.njobs++
	over := len(c.pending) > srvConnMaxPending
	c.mu.Unlock()
	if c.pool == nil {
		w.serve(c, holder)
	} else {
		c.srv.stats.AddQueued()
		c.pool.jobs <- poolJob{c, holder}
	}
	return over
}

// enqueueReply appends one finished reply to the connection's pending
// buffer and, unless another goroutine already owns the flush, becomes
// the flusher: it keeps writing until nothing is pending, so every
// reply that lands while a Write is in flight coalesces into the next
// one — the combining-writer replacement for a per-connection writer
// goroutine. An inline dispatch finds no flush running, so it writes
// its reply at once, in one Write. njobs drops per reply flushed (or
// discarded on a poisoned stream), never at mere enqueue, so the
// connection cannot tear down — and close — while replies are still
// buffered.
func (c *srvConn) enqueueReply(rep []byte) {
	c.mu.Lock()
	if c.werr != nil {
		c.njobs-- // discarded: the stream is already poisoned
		c.settleLocked()
		return
	}
	c.pending = appendRecord(c.pending, rep)
	c.queued++
	if c.flushing {
		c.mu.Unlock()
		return
	}
	c.flushing = true
	for c.werr == nil && len(c.pending) > 0 {
		buf, n := c.pending, c.queued
		c.pending, c.queued = c.spare[:0], 0
		c.spare = nil
		c.mu.Unlock()
		_, err := c.conn.Write(buf)
		c.mu.Lock()
		c.spare = buf
		if err != nil {
			// The stream is poisoned mid-record: wind the connection
			// down and discard whatever queued behind the failed write.
			c.werr = fmt.Errorf("sunrpc: write: %w", err)
			c.shutdownLocked()
			n += c.queued
			c.pending = c.pending[:0]
			c.queued = 0
		} else {
			c.srv.stats.AddFlush(n)
		}
		c.njobs -= n
	}
	c.flushing = false
	c.settleLocked()
}

// shutdown (Drain's path) winds the connection down. A flusher
// blocked in Write holds njobs; the past write deadline unparks it so
// the poison path can run.
func (c *srvConn) shutdown() {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return
	}
	c.conn.SetWriteDeadline(aLongTimeAgo)
	c.shutdownLocked()
	c.settleLocked()
}

// shutdownLocked marks the connection closing (mu held). A driver
// reading right now finishes the read side itself: the blocking reader
// once the close unparks it, the netpoll reader at its next check,
// since its descriptor must not close under a read.
func (c *srvConn) shutdownLocked() {
	c.closing = true
	switch {
	case c.rstate != rActive:
		c.rstate = rDone
		c.needClose = true
	case c.pl == nil:
		c.needClose = true
	}
}

// finishReadLocked retires the read side (mu held; unlocks). The
// connection closes at once on an error or a shutdown; on a clean EOF
// with replies still owed it stays open so the tail replies reach a
// half-closed peer, and the last flush tears down. A read error after
// a shutdown is its echo, not a cause, and is not reported.
func (c *srvConn) finishReadLocked(rerr error) {
	if c.err == nil && !c.closing {
		c.err = rerr
	}
	c.rstate = rDone
	if c.closing || rerr != nil {
		c.needClose = true
	}
	c.settleLocked()
}

// settleLocked (mu held; unlocks) acts on the state its caller left:
// a requested close, resuming a driver paused at the pending cap, and
// the teardown once the read side is done and the last owed reply
// has left.
func (c *srvConn) settleLocked() {
	needClose := c.needClose
	c.needClose = false
	resume := c.rstate == rPaused && !c.closing && len(c.pending) <= srvConnMaxPending
	if resume {
		c.rstate = rActive
	}
	fin := c.rstate == rDone && c.njobs == 0 && !c.tornDown
	if fin {
		c.tornDown = true
	}
	c.mu.Unlock()
	if needClose || fin {
		c.closeFD()
	}
	if fin {
		c.finish()
	}
	if resume {
		// Resume on a fresh goroutine: this is a pool worker, and a
		// driver blocked submitting back into the pool from a worker
		// could deadlock the pool against itself. Pauses only happen
		// under slow-reader backpressure, so the transient goroutine
		// does not disturb the steady-state count.
		go c.read()
	}
}

// closeFD closes the connection once, deregistering a netpoll
// descriptor first so a recycled fd number cannot receive stale
// events.
func (c *srvConn) closeFD() {
	c.closeOnce.Do(func() {
		if c.pl != nil {
			c.pl.Deregister(c.fd)
		}
		c.conn.Close()
	})
}

// finish is the one teardown (guarded by tornDown): release the
// reassembly holder, untrack, and wake ServeConn.
func (c *srvConn) finish() {
	if c.holder != nil {
		*c.holder = c.asm.rec
		c.srv.holders.Put(c.holder)
		c.holder = nil
	}
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	if len(s.conns) == 0 {
		s.connsGone.Broadcast()
	}
	s.mu.Unlock()
	c.mu.Lock()
	if c.err == nil {
		c.err = c.werr
	}
	c.mu.Unlock()
	close(c.done)
}

// readErr classifies a driver's read error: the peer going away (EOF,
// a reset, a closed connection) ends the connection quietly; anything
// else, a rejected record included, is reported.
func readErr(err error) error {
	for _, quiet := range [...]error{io.EOF, io.ErrUnexpectedEOF, net.ErrClosed, syscall.ECONNRESET, syscall.EPIPE, syscall.EBADF} {
		if errors.Is(err, quiet) {
			return nil
		}
	}
	return fmt.Errorf("sunrpc: read: %w", err)
}
