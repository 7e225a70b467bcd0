package sunrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flexrpc/internal/clock"
	"flexrpc/internal/netpoll"
	"flexrpc/internal/stats"
	"flexrpc/internal/xdr"
)

// A ProcHandler implements one procedure: decode arguments from
// args, append results to reply. Returning ErrGarbageArgs reports
// undecodable arguments to the caller; any other error is a system
// error.
type ProcHandler func(args *xdr.Decoder, reply *xdr.Encoder) error

// ErrGarbageArgs signals that a handler could not decode its
// arguments; it maps to the GARBAGE_ARGS accept status.
var ErrGarbageArgs = errors.New("sunrpc: garbage arguments")

// A PanicError reports a recovered handler panic. The peer sees a
// bare SYSTEM_ERR accept status (the Sun RPC reply carries no error
// payload); the server process keeps the value and stack for logs.
type PanicError struct {
	Proc  uint32
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sunrpc: handler for proc %d panicked: %v", e.Proc, e.Value)
}

// Accept-loop backoff cap for resource-exhaustion errors (EMFILE and
// friends): long enough that a starved shard is not spinning, low
// enough that Drain is never held up long.
const acceptBackoffMax = 100 * time.Millisecond

// A Server dispatches Sun RPC calls for one program/version.
type Server struct {
	prog     uint32
	vers     uint32
	handlers map[uint32]ProcHandler

	// MaxMessageSize bounds received request records; zero means
	// DefaultMaxRecord. Set before serving.
	MaxMessageSize int

	concurrency int
	stats       *stats.Endpoint
	netpoll     bool // see netpoll.go

	// Accept rate limiting: a token bucket per accept shard (see
	// accept.go). The clock is swappable so tests drive it with a
	// FakeClock.
	acceptRate  float64
	acceptBurst int
	clock       clock.Clock

	// Drain state: calls dispatched after Drain starts answer
	// SYSTEM_ERR — the only pushback the bare Sun RPC wire can carry —
	// and inflight lets Drain wait out the calls admitted before.
	inflight atomic.Int64
	draining atomic.Bool

	// Pooled buffers: holders carry request records from the read
	// drivers to dispatch; scratch is what a netpoll read drains into.
	holders sync.Pool
	scratch sync.Pool

	mu         sync.Mutex
	listeners  []net.Listener
	conns      map[*srvConn]struct{} // every attached conn, until its teardown
	connsGone  sync.Cond             // broadcast (under mu) when conns empties
	pool       *workerPool           // shared across connections; nil until first needed
	pollers    []*netpoll.Poller
	pollerNext int // round-robin poller assignment for new conns
}

// NewServer creates a server for prog/vers. Procedure 0 (the null
// procedure every Sun RPC program must provide) is pre-registered.
func NewServer(prog, vers uint32) *Server {
	s := &Server{prog: prog, vers: vers, handlers: make(map[uint32]ProcHandler)}
	s.connsGone.L = &s.mu
	s.holders.New = func() any { return new([]byte) }
	s.scratch.New = func() any { b := make([]byte, npReadBuf); return &b }
	s.handlers[0] = func(*xdr.Decoder, *xdr.Encoder) error { return nil }
	return s
}

// Register installs the handler for proc, replacing any previous
// one.
func (s *Server) Register(proc uint32, h ProcHandler) {
	s.handlers[proc] = h
}

// SetConcurrency sets the size of the server's shared worker pool.
// n <= 1 (the default) dispatches each request inline on the
// connection's reader, so replies keep arrival order; n > 1
// dispatches requests from all connections onto one bounded pool of n
// workers, so the goroutine bill is O(conns + workers) — one reader
// per connection plus the shared pool — rather than O(conns ×
// workers). Either way replies leave through the connection's
// combining flusher (see srvConn.enqueueReply). Out-of-order replies
// are legal on the Sun RPC wire — the client demultiplexes by xid.
// Set before serving.
func (s *Server) SetConcurrency(n int) { s.concurrency = n }

// SetStats points the server's queue/flush/panic counters at e; a nil
// endpoint (the default) records nothing. Set before serving.
func (s *Server) SetStats(e *stats.Endpoint) { s.stats = e }

// Inflight reports the calls currently being dispatched.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully retires the server: listeners passed to Serve stop
// accepting, new calls on existing connections answer SYSTEM_ERR, and
// Drain waits (bounded by ctx) for in-flight dispatches to finish
// before closing every connection — accepted by Serve or passed to
// ServeConn — and stopping the shared worker pool and pollers. It
// reports ctx.Err() when in-flight calls outlive the deadline
// (connections are closed regardless, so blocked peers unpark; the
// pool is then detached and retired in the background once the last
// connection tears down, since a stuck handler still holds a worker).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
	s.mu.Unlock()

	var err error
	for s.inflight.Load() > 0 && err == nil {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}

	// Snapshot then close outside the lock: a conn's Close may tear it
	// down inline, which needs s.mu itself.
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.shutdown()
	}

	// Stop the pool once every connection has torn down (closing them
	// above winds them down): a live connection may still submit, so
	// closing the jobs channel earlier could panic a send. The waker
	// goroutine turns a ctx expiry into a broadcast so the wait below
	// never outlives the deadline.
	wakerDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.connsGone.Broadcast()
			s.mu.Unlock()
		case <-wakerDone:
		}
	}()
	s.mu.Lock()
	for len(s.conns) > 0 && ctx.Err() == nil {
		s.connsGone.Wait()
	}
	pool, live, pollers := s.pool, len(s.conns), s.pollers
	s.pool, s.pollers = nil, nil
	s.mu.Unlock()
	close(wakerDone)
	if pool != nil {
		if live == 0 {
			pool.stop()
		} else {
			// Deadline expired with connections still live. The pool is
			// detached (no new connection can reach it, since the
			// server is draining) and retired in the background the
			// moment the last one tears down, so repeated
			// drain/recreate cycles cannot accumulate worker goroutines.
			if err == nil {
				err = ctx.Err()
			}
			go func() {
				s.mu.Lock()
				for len(s.conns) > 0 {
					s.connsGone.Wait()
				}
				s.mu.Unlock()
				pool.stop()
			}()
		}
	}

	// Pollers go last: once the wait above has seen every conn torn
	// down, no callback can be mid-flight. Close signals the event
	// loops and returns without waiting (a loop wedged behind a stuck
	// pool in the deadline-expired case exits once the pool drains).
	for _, p := range pollers {
		p.Close()
	}
	return err
}

// ServeConn processes calls from conn until it closes, returning nil
// on clean EOF; the connection is closed by then. Calls arrive through
// one of two read drivers (see conn.go) — netpoll readiness when
// SetNetpoll is on and conn has a descriptor, otherwise a blocking
// reader on this goroutine — and are dispatched by the shared worker
// pool (SetConcurrency(n > 1), or netpoll) or inline in arrival order.
// Drain closes the connection like any accepted by Serve.
func (s *Server) ServeConn(conn net.Conn) error {
	c := s.attach(conn)
	if c == nil {
		return nil // dropped: server already draining
	}
	c.read()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// A workerPool executes dispatches for every pooled connection of one
// Server: a fixed set of workers draining one bounded jobs channel.
// Each job carries the connection it belongs to, so replies land on
// the right stream.
type workerPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
}

type poolJob struct {
	c      *srvConn
	holder *[]byte
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{jobs: make(chan poolJob, n)}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w := newWorker()
			for j := range p.jobs {
				w.serve(j.c, j.holder)
			}
		}()
	}
	return p
}

func (p *workerPool) stop() {
	close(p.jobs)
	p.wg.Wait()
}

// A worker is the reusable decode/encode state of one dispatching
// goroutine: a pool worker, or a connection's reader in inline mode.
type worker struct {
	dec *xdr.Decoder
	enc xdr.Encoder
}

func newWorker() *worker { return &worker{dec: xdr.NewDecoder(nil)} }

// serve dispatches the record in holder, recycles the holder, and
// queues the reply on c.
func (w *worker) serve(c *srvConn, holder *[]byte) {
	rec := *holder
	w.enc.Reset()
	w.dec.Reset(rec)
	c.srv.dispatch(w.dec, &w.enc)
	*holder = rec[:cap(rec)]
	c.srv.holders.Put(holder)
	c.enqueueReply(w.enc.Bytes())
}

// dispatch handles one call, always leaving a complete reply in enc.
func (s *Server) dispatch(d *xdr.Decoder, enc *xdr.Encoder) {
	h, err := decodeCall(d)
	if err != nil {
		// Unparseable header: answer with a system error under the
		// xid we managed to read (zero otherwise).
		encodeAcceptedReply(enc, h.XID, SystemErr)
		return
	}
	// A draining server answers SYSTEM_ERR before touching a handler.
	// Raw Sun RPC servers have no session admission above them, and
	// the bare wire has no richer pushback; SYSTEM_ERR is retryable by
	// construction.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		s.stats.AddDrainReject()
		encodeAcceptedReply(enc, h.XID, SystemErr)
		return
	}
	switch {
	case h.Prog != s.prog:
		encodeAcceptedReply(enc, h.XID, ProgUnavail)
	case h.Vers != s.vers:
		encodeAcceptedReply(enc, h.XID, ProgMismatch)
	default:
		handler, ok := s.handlers[h.Proc]
		if !ok {
			encodeAcceptedReply(enc, h.XID, ProcUnavail)
			return
		}
		// Reserve the success header, run the handler, and rewrite
		// the header on failure. Header sizes are fixed, so we can
		// re-encode in place by resetting.
		encodeAcceptedReply(enc, h.XID, Success)
		if err := s.runHandler(h.Proc, handler, d, enc); err != nil {
			enc.Reset()
			if errors.Is(err, ErrGarbageArgs) {
				encodeAcceptedReply(enc, h.XID, GarbageArgs)
			} else {
				encodeAcceptedReply(enc, h.XID, SystemErr)
			}
		}
	}
}

// runHandler invokes h, converting a panic into a *PanicError so one
// bad request cannot take down the connection (or, under a worker
// pool, its sibling requests). The defer lives in this small frame so
// the recover machinery stays off the non-panicking path.
func (s *Server) runHandler(proc uint32, h ProcHandler, d *xdr.Decoder, enc *xdr.Encoder) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.stats.AddHandlerPanic()
			err = &PanicError{Proc: proc, Value: p, Stack: debug.Stack()}
		}
	}()
	return h(d, enc)
}

// Serve accepts connections from l and serves each until the listener
// closes (or Drain closes it) — in netpoll mode by registering the
// conn with a poller, otherwise with a blocking reader on its own
// goroutine. Accept failures
// are classified by errno (see classifyAcceptError): connections that
// died in the backlog retry immediately, resource exhaustion (EMFILE
// and friends) backs off at the 100ms cap, anything else is permanent
// and stops the shard. With SetAcceptRate configured, a per-shard
// token bucket paces accepts so an accept storm cannot monopolize the
// pollers.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	limiter := s.newAcceptLimiter()
	for {
		if limiter != nil && limiter.take() {
			s.stats.AddAcceptThrottled()
		}
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if s.draining.Load() {
				return err
			}
			switch classifyAcceptError(err) {
			case acceptRetry:
				continue
			case acceptBackoff:
				// Resource exhaustion does not clear in a millisecond;
				// go straight to the cap. Half fixed, half jittered:
				// shards hitting the same exhaustion decorrelate.
				d := acceptBackoffMax
				time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
				continue
			}
			return err
		}
		c := s.attach(conn)
		switch {
		case c == nil:
		case c.pl != nil:
			c.read() // the initial read pass; readiness drives the rest
		default:
			go c.read()
		}
	}
}

// ServeShards runs one accept loop per listener (accept sharding):
// each shard accepts on its own goroutine, so a multi-listener
// deployment spreads accept work and none of the shards can starve
// the others. It returns once every shard has stopped — Drain closes
// them all — reporting the first shard error.
func (s *Server) ServeShards(ls ...net.Listener) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ls))
	for i, l := range ls {
		wg.Add(1)
		go func(i int, l net.Listener) {
			defer wg.Done()
			errs[i] = s.Serve(l)
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
