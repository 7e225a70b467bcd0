package sunrpc

// The netpoll read driver: instead of one blocking reader goroutine
// per connection, connections register their raw file descriptor with
// a fixed set of edge-triggered pollers (internal/netpoll). On
// readiness a poller performs non-blocking reads and pushes the bytes
// through the connection's recordAssembler; complete records go to
// the same submit, pool and combining flusher as the blocking reader
// (conn.go), so steady-state goroutines are O(pollers + workers +
// accept shards), independent of the connection count.
//
// fd ownership: register extracts the descriptor once via
// syscall.RawConn and the srvConn keeps the net.Conn alive for its
// whole lifetime, so the number stays valid. Reads go straight through
// syscall.Read (the sockets are already non-blocking under Go's
// runtime); writes keep using conn.Write so the Go netpoller parks
// blocked flushers. closeFD deregisters the descriptor before
// conn.Close() runs — closing a registered fd invites the fd-reuse
// race where a recycled descriptor number receives a stale event.

import (
	"runtime"
	"syscall"

	"flexrpc/internal/netpoll"
)

// SetNetpoll switches the server to the event-driven readiness
// driver: connections register with a fixed set of pollers —
// min(GOMAXPROCS, accept shards) — instead of spending a reader
// goroutine each, so idle connections cost only their compact
// per-conn state, not a goroutine stack. On platforms without netpoll
// support (see internal/netpoll), or for connections that expose no
// raw descriptor (in-memory pipes), the server uses the blocking
// reader with identical semantics. A netpoll connection always
// dispatches through the shared worker pool, even when SetConcurrency
// was never raised. Set before serving.
func (s *Server) SetNetpoll(on bool) { s.netpoll = on }

// npReadBuf is the scratch-buffer size for poller reads. One buffer is
// in use per concurrently-draining connection (pooled, not per-conn):
// idle connections hold only their reassembly state.
const npReadBuf = 64 << 10

// register hands c's descriptor to a poller. It leaves c.pl nil —
// the blocking reader serves c — when the platform, the connection or
// the server offers no poller.
func (c *srvConn) register() {
	sc, ok := c.conn.(syscall.Conn)
	if !ok || !netpoll.Supported() {
		return
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return
	}
	fd := -1
	if err := raw.Control(func(u uintptr) { fd = int(u) }); err != nil || fd < 0 {
		return
	}
	pl := c.srv.nextPoller()
	if pl == nil {
		return
	}
	// An edge can fire the moment Register returns; onReady then finds
	// the conn rActive (attach's caller owns the first read pass) and
	// only notes the edge.
	c.pl, c.fd = pl, fd
	if pl.Register(fd, c.onReady) != nil {
		c.pl = nil
		return
	}
	c.srv.stats.AddPollerConnRegistered()
}

// nextPoller picks a poller round-robin, starting the set on first
// use: min(GOMAXPROCS, accept shards) of them, since one poller can
// multiplex very many connections. It returns nil once the server is
// draining or when no poller can start.
func (s *Server) nextPoller() *netpoll.Poller {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil
	}
	if len(s.pollers) == 0 {
		n := min(runtime.GOMAXPROCS(0), max(len(s.listeners), 1))
		for i := 0; i < n; i++ {
			p, err := netpoll.New(func(events int) { s.stats.AddPollerWakeups(events) })
			if err != nil {
				for _, q := range s.pollers {
					q.Close()
				}
				s.pollers = nil
				return nil
			}
			s.pollers = append(s.pollers, p)
		}
	}
	pl := s.pollers[s.pollerNext%len(s.pollers)]
	s.pollerNext++
	return pl
}

// onReady is the poller callback: claim rActive and drain, or note the
// edge for the goroutine already draining.
func (c *srvConn) onReady(bool) {
	c.mu.Lock()
	switch c.rstate {
	case rActive:
		c.rearm = true
		c.mu.Unlock()
		return
	case rPaused, rDone:
		// Paused conns are resumed by the flusher (which always drains
		// to EAGAIN afterwards, so no edge is lost); done conns are
		// winding down.
		c.mu.Unlock()
		return
	}
	c.rstate = rActive
	c.mu.Unlock()
	c.pollRead()
}

// pollRead drains the descriptor until EAGAIN (back to rIdle), the
// pending-reply cap (rPaused; the flusher resumes), or the read side
// finishes (rDone). Runs on whichever goroutine claimed rActive — a
// poller, a goroutine resuming after backpressure, or attach's caller
// for the initial pass.
func (c *srvConn) pollRead() {
	bufp := c.srv.scratch.Get().(*[]byte)
	defer c.srv.scratch.Put(bufp)
	buf := *bufp
	for c.readable() {
		// Bytes left over from the batch that tripped the pending cap
		// go first; they are a strict suffix of one scratch batch, so
		// they fit.
		n := copy(buf, c.carry)
		c.carry = c.carry[:0]
		if n == 0 {
			var err error
			n, err = syscall.Read(c.fd, buf)
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN:
				c.mu.Lock()
				if c.rearm {
					// An edge fired while we were draining; its data may
					// have landed after our last read. Go around again.
					c.rearm = false
					c.mu.Unlock()
					continue
				}
				if c.closing {
					c.finishReadLocked(nil)
					return
				}
				c.rstate = rIdle
				c.mu.Unlock()
				return
			case err != nil:
				c.mu.Lock()
				c.finishReadLocked(readErr(err))
				return
			case n == 0:
				// Clean EOF — possibly a half-close with pipelined
				// replies still owed, which finishReadLocked waits for.
				c.mu.Lock()
				c.finishReadLocked(nil)
				return
			}
		}
		if err := c.ingest(buf[:n]); err != nil {
			c.mu.Lock()
			c.finishReadLocked(readErr(err))
			return
		}
	}
}

// ingest pushes one read's bytes through the assembler, submitting
// each completed record. The pending-reply cap is enforced per record,
// not per batch: a single 64 KiB read can carry hundreds of pipelined
// requests whose replies are each far larger than the request, so once
// the cap trips, the unconsumed remainder is stashed in carry and
// pollRead's next check parks the connection. Steady state allocates
// nothing: record holders are pooled and grow to their working size.
func (c *srvConn) ingest(b []byte) error {
	for len(b) > 0 {
		if c.holder == nil {
			c.holder = c.srv.holders.Get().(*[]byte)
			c.asm.rec = (*c.holder)[:0]
		}
		n := copy(c.asm.next(len(b)), b)
		b = b[n:]
		done, err := c.asm.commit(n)
		if err != nil {
			return err
		}
		if !done {
			continue
		}
		holder := c.holder
		*holder, c.holder, c.asm.rec = c.asm.rec, nil, nil
		if c.submit(holder, nil) && len(b) > 0 {
			c.carry = append(c.carry[:0], b...)
			return nil
		}
	}
	if c.asm.midRecord() {
		c.srv.stats.AddPartialRead()
	}
	return nil
}
