package main

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"flexrpc/internal/ir"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/suntcp"
	"flexrpc/internal/xdr"
)

// The traced run times each layer from outside the program, by
// wrapping the values handed across layer boundaries. A wrapper adds
// clock reads and nothing else: it forwards every optional interface
// the runtime probes for, so the traced call takes the same path as
// the untraced one.

// timedConn is a runtime.Conn that accumulates the wall time spent
// inside the Conn it wraps. One client goroutine owns each timedConn
// (the session layer calls its inner Conn synchronously), so ns needs
// no synchronisation; take reads and resets it after each call.
type timedConn struct {
	inner runtime.Conn
	ns    int64
}

var (
	_ runtime.ContextConn = (*timedConn)(nil)
	_ runtime.TraceConn   = (*timedConn)(nil)
	_ runtime.SelfFraming = (*timedConn)(nil)
)

func (t *timedConn) take() int64 {
	ns := t.ns
	t.ns = 0
	return ns
}

func (t *timedConn) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	t0 := time.Now()
	reply, err := t.inner.Call(opIdx, req, replyBuf)
	t.ns += int64(time.Since(t0))
	return reply, err
}

// CallContext forwards through runtime.CallConn, which is exactly what
// the runtime does with the unwrapped Conn: native context support
// when the inner Conn has it, the goroutine adapter when it has not.
func (t *timedConn) CallContext(ctx context.Context, opIdx int, req, replyBuf []byte) ([]byte, error) {
	t0 := time.Now()
	reply, err := runtime.CallConn(ctx, t.inner, opIdx, req, replyBuf)
	t.ns += int64(time.Since(t0))
	return reply, err
}

// CallTraceContext forwards the trace id when the inner Conn carries
// one; otherwise the id is dropped, as the runtime would drop it.
func (t *timedConn) CallTraceContext(ctx context.Context, opIdx int, req, replyBuf []byte, tid uint32) ([]byte, error) {
	t0 := time.Now()
	var reply []byte
	var err error
	if tc, ok := t.inner.(runtime.TraceConn); ok {
		reply, err = tc.CallTraceContext(ctx, opIdx, req, replyBuf, tid)
	} else {
		reply, err = runtime.CallConn(ctx, t.inner, opIdx, req, replyBuf)
	}
	t.ns += int64(time.Since(t0))
	return reply, err
}

func (t *timedConn) SelfFraming() bool {
	sf, ok := t.inner.(runtime.SelfFraming)
	return ok && sf.SelfFraming()
}

// SetStats forwards Client.SetStats to the wrapped layer, so the
// session layer's retry and pushback counters land on the endpoint.
func (t *timedConn) SetStats(e *stats.Endpoint) {
	if s, ok := t.inner.(interface{ SetStats(*stats.Endpoint) }); ok {
		s.SetStats(e)
	}
}

func (t *timedConn) Close() error { return t.inner.Close() }

// maxClientID bounds the session client ids the benchmark hands out
// (1..clients); server-side spans are kept per id.
const maxClientID = 8

// serverSpans carries server-side layer times back to the client that
// caused them. Each client has at most one call outstanding (closed
// loop), so the server adds a call's times under the caller's session
// id before its reply is written, and the client takes them once the
// reply has arrived.
type serverSpans struct {
	handle  [maxClientID + 1]atomic.Int64 // SessionServer.Handle, ns
	handler [maxClientID + 1]atomic.Int64 // application handler, ns
	ctxs    sync.Pool                     // *spanCtx
}

// spanCtx is the dispatch context the traced server passes to
// SessionServer.Handle; the dispatcher hands it to the handler as
// Call.Context, which adds its own run time to handlerNs. Pooled, so
// tracing adds no allocation per call.
type spanCtx struct {
	context.Context
	handlerNs int64
}

func newServerSpans() *serverSpans {
	s := &serverSpans{}
	s.ctxs.New = func() any { return &spanCtx{Context: context.Background()} }
	return s
}

// take returns and resets the server-side times billed to client cid.
func (s *serverSpans) take(cid uint32) (handle, handler int64) {
	return s.handle[cid].Swap(0), s.handler[cid].Swap(0)
}

// tracedSessionServer mirrors suntcp.NewSessionServer (same program,
// version and procedure numbers; every procedure body is a session
// frame for sess.Handle) with the Handle call timed and attributed to
// the frame's session client id.
func tracedSessionServer(sess *runtime.SessionServer, iface *ir.Interface, spans *serverSpans) *sunrpc.Server {
	prog, vers := iface.Program, iface.Version
	if prog == 0 {
		prog, vers = suntcp.DefaultProgram, 1
	}
	srv := sunrpc.NewServer(prog, vers)
	for i := range iface.Ops {
		idx := i
		proc := iface.Ops[i].Proc
		if proc == 0 {
			proc = uint32(i + 1)
		}
		srv.Register(proc, func(args *xdr.Decoder, reply *xdr.Encoder) error {
			frame := args.Rest()
			sc := spans.ctxs.Get().(*spanCtx)
			sc.handlerNs = 0
			t0 := time.Now()
			rep := sess.Handle(sc, idx, frame)
			handle := int64(time.Since(t0))
			reply.PutRaw(rep)
			// The session frame opens with the client id (big-endian).
			if len(frame) >= 4 {
				if cid := binary.BigEndian.Uint32(frame); cid <= maxClientID {
					spans.handle[cid].Add(handle)
					spans.handler[cid].Add(sc.handlerNs)
				}
			}
			spans.ctxs.Put(sc)
			return nil
		})
	}
	return srv
}

// timeHandler wraps an application handler so its run time is billed
// to the call: to the spanCtx when the dispatch context is one (the
// Sun RPC path), otherwise to sink (the shared-memory path, where each
// client has its own dispatcher).
func timeHandler(h runtime.Handler, sink *atomic.Int64) runtime.Handler {
	return func(c *runtime.Call) error {
		t0 := time.Now()
		err := h(c)
		d := int64(time.Since(t0))
		if sc, ok := c.Context().(*spanCtx); ok {
			sc.handlerNs += d
		} else if sink != nil {
			sink.Add(d)
		}
		return err
	}
}
