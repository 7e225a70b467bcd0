package shmring

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"flexrpc/internal/fbuf"
	"flexrpc/internal/ir"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Options configures Connect.
type Options struct {
	Config
	// Hooks supply [special] marshal routines for the client plan (the
	// dispatcher's own hooks serve the server plan when set).
	Hooks runtime.SpecialHooks
	// ForceDoorbell keeps the cross-goroutine doorbell handoff even
	// when full mutual trust would allow inline dispatch; benchmarks
	// use it to measure the handoff itself.
	ForceDoorbell bool
}

// A Bound is a bind-time specialized shmring connection implementing
// runtime.Invoker/ContextInvoker: marshal plans for both presentations
// are compiled at Connect, request bytes are produced directly into a
// leased fbuf's arena, and the annotations decide — once, at bind —
// how much of the untrusted-peer machinery the per-call path keeps:
//
//   - [trusted] on both sides (the paper's §4.5 trust ladder) elides
//     header validation, the per-call fbuf ownership protocol, and —
//     unless ForceDoorbell — the handoff itself: the handler runs
//     inline on the caller's goroutine, LRPC-style thread migration
//     for the same-domain case.
//   - [nonunique] port naming (or an interface with no port
//     parameters) elides the per-handoff name-table lookup: both
//     directions use one request and one reply buffer leased at bind,
//     named by a constant doorbell reference instead of an fbuf id
//     resolved through the path's id map.
//
// Either specialization makes the binding leased: each leased buffer
// holds one message of the ring's per-message budget (the largest
// body the ring's pool can splice, see Config.Slots), so every
// message within the budget is produced and consumed in place and a
// larger one fails with ErrTooLarge — except inline, where the
// caller's goroutine can carry the heap bytes of an encode that
// outgrew its arena. A unique-naming binding is a client of the
// generic name-table exchange instead: its calls make the same ring
// exchange as Conn.Call, served by the generic Server loop, under the
// same budget.
//
// Operations whose compiled plans carry no marshal steps at all
// dispatch directly — the combination signature compiled the
// transport away, which is exactly the paper's point.
type Bound struct {
	mu     sync.Mutex
	ring   *Ring
	disp   *runtime.Dispatcher
	cplan  *runtime.Plan
	splan  *runtime.Plan
	binds  []boundOp
	byName map[string]int

	trusted   bool
	nonUnique bool
	inline    bool
	leased    bool // trusted or nonUnique: calls use the leased buffers

	// Leased buffers, one per direction, from a two-buffer path
	// private to the binding. Under trust the arenas are cached and
	// the ownership protocol is skipped; untrusted bindings move
	// ownership back and forth every call.
	reqSlot, repSlot   *fbuf.Buffer
	reqArena, repArena []byte

	// enc encodes unique-naming requests; the name-table exchange
	// copies its bytes into pool slots.
	enc runtime.Encoder

	stats *stats.Endpoint
	done  chan struct{} // doorbell server goroutine exit
}

type boundOp struct {
	idx    int
	cop    *runtime.OpPlan
	direct bool // no marshal steps on either path: dispatch directly
}

// Connect binds a client presentation to a dispatcher over a private
// ring, compiling both marshal plans and resolving the annotation-
// driven specializations once. The network contract must match, as
// for any bind. Enable stats before issuing calls.
func Connect(clientPres *pres.Presentation, disp *runtime.Dispatcher, codec runtime.Codec, opts Options) (*Bound, error) {
	if clientPres.Interface.Signature() != disp.Pres.Interface.Signature() {
		return nil, fmt.Errorf("shmring: contract mismatch:\n  client %s\n  server %s",
			clientPres.Interface.Signature(), disp.Pres.Interface.Signature())
	}
	cfg, err := opts.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := checkArenaCodec(codec); err != nil {
		return nil, err
	}
	cplan, err := runtime.NewPlan(clientPres, codec, opts.Hooks)
	if err != nil {
		return nil, err
	}
	shooks := disp.Hooks()
	if shooks == nil {
		shooks = opts.Hooks
	}
	splan, err := runtime.NewPlan(disp.Pres, codec, shooks)
	if err != nil {
		return nil, err
	}
	b := &Bound{
		ring:   newRing(cfg),
		disp:   disp,
		cplan:  cplan,
		splan:  splan,
		byName: make(map[string]int),
		done:   make(chan struct{}),
	}
	// The combination signature: trust is the minimum both sides
	// extend; naming is relaxed only when neither endpoint relies on
	// the unique-name invariant for any port parameter.
	b.trusted = clientPres.Trust >= pres.TrustFull && disp.Pres.Trust >= pres.TrustFull
	b.nonUnique = !uniqueNamesNeeded(clientPres) && !uniqueNamesNeeded(disp.Pres)
	b.inline = b.trusted && !opts.ForceDoorbell
	b.leased = b.trusted || b.nonUnique
	for i, op := range cplan.Ops {
		b.binds = append(b.binds, boundOp{
			idx:    i,
			cop:    op,
			direct: op.RequestSteps() == 0 && op.ReplySteps() == 0,
		})
		b.byName[op.Op.Name] = i
	}
	if b.leased {
		// Bind-time lease: one buffer per direction, each holding a
		// frame header plus the ring's per-message budget. The ring's
		// own pool is never drawn from, so its storage is never
		// allocated.
		r := b.ring
		leases := fbuf.NewPath(headerSize+r.maxBody(), 2, r.client, r.server)
		if b.reqSlot, err = leases.Alloc(r.client); err != nil {
			return nil, err
		}
		if b.repSlot, err = leases.Alloc(r.server); err != nil {
			return nil, err
		}
		if b.reqArena, err = b.reqSlot.Arena(r.client); err != nil {
			return nil, err
		}
		if b.repArena, err = b.repSlot.Arena(r.server); err != nil {
			return nil, err
		}
	}
	switch {
	case b.inline:
		close(b.done)
	case b.leased:
		go b.serveLoop()
	default:
		b.enc = codec.NewEncoder()
		srv := &Server{r: b.ring, disp: disp, plan: splan}
		go func() {
			defer close(b.done)
			// A failing serve loop closes the reply doorbell, so calls
			// see its failure as ErrClosed.
			_ = srv.Serve(context.Background())
		}()
	}
	return b, nil
}

// uniqueNamesNeeded reports whether p relies on the system-maintained
// unique name table: true when any port parameter lacks [nonunique].
// Interfaces without port parameters never need it.
func uniqueNamesNeeded(p *pres.Presentation) bool {
	for i := range p.Interface.Ops {
		op := &p.Interface.Ops[i]
		opp := p.Op(op.Name)
		for j := range op.Params {
			prm := &op.Params[j]
			if prm.Type == nil || prm.Type.Kind != ir.Port {
				continue
			}
			if opp == nil {
				return true
			}
			if a, ok := opp.Params[prm.Name]; !ok || !a.NonUnique {
				return true
			}
		}
	}
	return false
}

// Trusted reports whether the binding elides the untrusted-peer
// machinery; NonUniqueNames whether the name-table lookup is elided.
func (b *Bound) Trusted() bool        { return b.trusted }
func (b *Bound) NonUniqueNames() bool { return b.nonUnique }
func (b *Bound) InlineDispatch() bool { return b.inline }

// EnableStats switches on client-side observability, pointing the
// client plan's codec meters at the same endpoint. Call before
// issuing calls — the plans are shared with the serve goroutine.
func (b *Bound) EnableStats() *stats.Endpoint {
	if b.stats == nil {
		names := make([]string, len(b.cplan.Ops))
		for i, op := range b.cplan.Ops {
			names[i] = op.Op.Name
		}
		b.stats = stats.New(names)
		b.cplan.SetStats(b.stats)
	}
	return b.stats
}

// SetStats installs (or removes) the endpoint; see EnableStats.
func (b *Bound) SetStats(e *stats.Endpoint) {
	b.stats = e
	b.cplan.SetStats(e)
}

// ServerPlan exposes the compiled server plan so callers can point
// its meters at an endpoint (benchmarks metering the full round
// trip). Do this before issuing calls.
func (b *Bound) ServerPlan() *runtime.Plan { return b.splan }

// Stats snapshots the client-side counters.
func (b *Bound) Stats() *stats.Snapshot { return b.stats.Snapshot() }

// Close tears the binding down: both doorbells wake closed, and Close
// returns once the serve goroutine (if any) has exited.
func (b *Bound) Close() error {
	b.ring.poisonWith(nil)
	<-b.done
	return nil
}

// Invoke implements runtime.Invoker.
func (b *Bound) Invoke(op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	return b.invoke(nil, op, args, outBufs, retBuf)
}

// InvokeContext implements runtime.ContextInvoker. The context bounds
// slot-pool waits and the reply doorbell wait; a call abandoned at
// the doorbell poisons the binding (the ring is desynchronized), so
// subsequent calls fail with ErrClosed.
func (b *Bound) InvokeContext(ctx context.Context, op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	return b.invoke(ctx, op, args, outBufs, retBuf)
}

func (b *Bound) invoke(ctx context.Context, op string, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	idx, ok := b.byName[op]
	if !ok {
		return nil, nil, fmt.Errorf("shmring: unknown operation %q", op)
	}
	if len(args) != len(b.binds[idx].cop.Op.Params) {
		return nil, nil, fmt.Errorf("shmring: %s takes %d params, have %d", op, len(b.binds[idx].cop.Op.Params), len(args))
	}
	if b.stats != nil {
		t0 := time.Now()
		tid := b.stats.NextTraceID()
		b.stats.Trace(tid, idx, stats.StageDispatch)
		outs, ret, err := b.invokeBound(ctx, idx, args, outBufs, retBuf)
		b.stats.Trace(tid, idx, stats.StageReply)
		b.stats.RecordCall(idx, time.Since(t0), 0, 0, runtime.OutcomeOf(err))
		return outs, ret, err
	}
	return b.invokeBound(ctx, idx, args, outBufs, retBuf)
}

func (b *Bound) invokeBound(ctx context.Context, idx int, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	if b.ring.closed() {
		return nil, nil, ErrClosed
	}
	bop := &b.binds[idx]
	if b.inline && bop.direct {
		// Nothing to marshal in either direction: the bound call is a
		// plain dispatch, no arena, no lock.
		call := b.disp.AcquireCall(bop.cop.Op)
		if ctx != nil {
			call.SetContext(ctx)
		}
		err := b.disp.Invoke(call)
		call.RunAfterReply()
		b.disp.ReleaseCall(call)
		return nil, nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ring.closed() {
		return nil, nil, ErrClosed
	}
	switch {
	case b.inline:
		return b.invokeInline(ctx, bop, args, outBufs, retBuf)
	case b.leased:
		return b.invokeLeased(ctx, bop, args, outBufs, retBuf)
	}
	return b.invokeUnique(ctx, bop, args, outBufs, retBuf)
}

// invokeInline runs the call on the caller's goroutine: request bytes
// are produced into the leased request buffer's arena, the dispatcher
// consumes them and produces the reply into the reply buffer's arena,
// and the client plan decodes it from there. No doorbell, no header:
// under full mutual trust the op index rides in a register (the
// argument) and validation is elided. A message that outgrows its
// arena lands in its encoder's heap storage; the bytes are valid
// either way, so inline dispatch takes any size and encodes once.
func (b *Bound) invokeInline(ctx context.Context, bop *boundOp, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	qenc, _ := b.cplan.AcquireArenaEncoder(b.reqArena)
	defer b.cplan.ReleaseArenaEncoder(qenc)
	if err := bop.cop.EncodeRequest(qenc, args); err != nil {
		return nil, nil, err
	}
	renc, _ := b.splan.AcquireArenaEncoder(b.repArena)
	defer b.splan.ReleaseArenaEncoder(renc)
	if err := b.disp.ServeMessageRawContext(ctx, b.splan, bop.idx, qenc.Bytes(), renc); err != nil {
		return nil, nil, err
	}
	dec := b.cplan.AcquireDecoder(renc.Bytes())
	outs, ret, err := bop.cop.DecodeReply(dec, outBufs, retBuf)
	b.cplan.ReleaseDecoder(dec)
	return outs, ret, err
}

// invokeLeased produces the request in the leased request buffer,
// hands it to the serve goroutine through the doorbells, and decodes
// the reply the serve goroutine produced in the leased reply buffer.
// A call abandoned at the doorbell poisons the binding (see
// Ring.handoff).
func (b *Bound) invokeLeased(ctx context.Context, bop *boundOp, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	if err := b.sendRequest(bop, args); err != nil {
		return nil, nil, err
	}
	if _, err := b.ring.handoff(ctx, 0); err != nil {
		return nil, nil, err
	}
	return b.receiveReply(bop, outBufs, retBuf)
}

// sendRequest produces the request frame in the leased request
// buffer.
func (b *Bound) sendRequest(bop *boundOp, args []runtime.Value) error {
	r := b.ring
	arena := b.reqArena
	if !b.trusted {
		// [nonunique] naming with an untrusted peer: the buffer pair is
		// bound once (the doorbell ref is a constant, no id lookup), but
		// the full fbuf discipline remains — take the arena as owner,
		// produce in place, declare the length, move ownership.
		var err error
		if arena, err = b.reqSlot.Arena(r.client); err != nil {
			return err
		}
	}
	// Trusted: the cached arena is written directly; ownership ops and
	// checksums are elided, only the header's op and length words are
	// produced for the peer.
	n, err := bop.cop.EncodeRequestArena(arena[headerSize:], args)
	if errors.Is(err, runtime.ErrArenaOverflow) {
		return fmt.Errorf("%w: request exceeds the %d-byte message budget", ErrTooLarge, r.maxBody())
	}
	if err != nil {
		return err
	}
	putHeader(arena, uint32(bop.idx), uint32(n), 0)
	if b.trusted {
		return nil
	}
	if err := b.reqSlot.SetProduced(r.client, headerSize+n); err != nil {
		return err
	}
	return b.reqSlot.Transfer(r.client, r.server, false)
}

// receiveReply decodes the framed reply in the leased reply buffer
// and, unless the binding is trusted, hands the buffer back to the
// producer.
func (b *Bound) receiveReply(bop *boundOp, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	reply, err := b.leasedReply()
	var outs []runtime.Value
	var ret runtime.Value
	if err == nil {
		outs, ret, err = b.decodeFramedReply(bop, reply, outBufs, retBuf)
	}
	if !b.trusted {
		if terr := b.repSlot.Transfer(b.ring.client, b.ring.server, false); terr != nil && err == nil {
			err = terr
		}
	}
	return outs, ret, err
}

// invokeUnique makes the call as a name-table exchange: the peer
// insists on resolving buffers through the system-maintained name
// table, so the request is spliced into fresh pool slots whose ids
// the doorbell publishes — the cost [nonunique] elides.
func (b *Bound) invokeUnique(ctx context.Context, bop *boundOp, args []runtime.Value, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	b.enc.Reset()
	if err := bop.cop.EncodeRequest(b.enc, args); err != nil {
		return nil, nil, err
	}
	reply, _, bufs, err := b.ring.exchange(ctx, uint32(bop.idx), b.enc.Bytes(), nil)
	if err != nil {
		return nil, nil, err
	}
	defer b.ring.freeAll(b.ring.client, bufs)
	return b.decodeFramedReply(bop, reply, outBufs, retBuf)
}

// leasedReply returns the reply body framed in the leased reply
// buffer, validated unless the binding is trusted.
func (b *Bound) leasedReply() ([]byte, error) {
	hb := b.repArena
	if !b.trusted {
		var err error
		if hb, err = b.repSlot.Bytes(b.ring.client); err != nil {
			return nil, err
		}
	}
	_, n, flags, err := parseHeader(hb, b.trusted)
	switch {
	case err != nil:
		return nil, err
	case flags&flagTooLarge != 0:
		return nil, b.ring.errReplyTooLarge()
	case headerSize+int(n) > len(hb):
		return nil, fmt.Errorf("%w: reply length %d", ErrBadHeader, n)
	}
	return hb[headerSize : headerSize+int(n)], nil
}

func (b *Bound) decodeFramedReply(bop *boundOp, reply []byte, outBufs [][]byte, retBuf []byte) ([]runtime.Value, runtime.Value, error) {
	dec := b.cplan.AcquireDecoder(reply)
	defer b.cplan.ReleaseDecoder(dec)
	if err := runtime.ReadReplyStatus(dec); err != nil {
		return nil, nil, err
	}
	return bop.cop.DecodeReply(dec, outBufs, retBuf)
}

// serveLoop is the leased bindings' doorbell server: it consumes each
// request in the leased request buffer and produces the reply in the
// leased reply buffer.
func (b *Bound) serveLoop() {
	defer close(b.done)
	r := b.ring
	for {
		if _, ok := r.reqBell.wait(stateReq); !ok {
			r.repBell.close()
			return
		}
		r.reqBell.reset()
		if err := b.serveLeased(); err != nil {
			r.repBell.close()
			return
		}
	}
}

// serveLeased consumes the request in the leased request buffer and
// produces the reply in place in the leased reply buffer.
func (b *Bound) serveLeased() error {
	r := b.ring
	hb := b.reqArena
	if !b.trusted {
		var err error
		if hb, err = b.reqSlot.Bytes(r.server); err != nil {
			return err
		}
	}
	op, n, flags, err := parseHeader(hb, b.trusted)
	if err == nil && (flags&contMask != 0 || headerSize+int(n) > len(hb)) {
		err = fmt.Errorf("%w: request frame", ErrBadHeader)
	}
	if err != nil {
		return err
	}
	arena := b.repArena
	if !b.trusted {
		if arena, err = b.repSlot.Arena(r.server); err != nil {
			return err
		}
	}
	renc, _ := b.splan.AcquireArenaEncoder(arena[headerSize:])
	b.disp.ServeMessageContext(nil, b.splan, int(op), hb[headerSize:headerSize+int(n)], renc)
	rn, aerr := runtime.ArenaLen(arena[headerSize:], renc.Bytes())
	b.splan.ReleaseArenaEncoder(renc)
	var rflags uint32
	if aerr != nil {
		// The handler ran but its reply outgrew the budget: the frame
		// tells the client so instead of tearing the binding down.
		rn, rflags = 0, flagTooLarge
	}
	// The request bytes are consumed. Hand the request buffer back
	// before the reply bell rings: once the client wakes it may
	// produce the next request there.
	if !b.trusted {
		if err := b.reqSlot.Transfer(r.server, r.client, false); err != nil {
			return err
		}
	}
	putHeader(arena, op, uint32(rn), rflags)
	if !b.trusted {
		if err := b.repSlot.SetProduced(r.server, headerSize+rn); err != nil {
			return err
		}
		if err := b.repSlot.Transfer(r.server, r.client, false); err != nil {
			return err
		}
	}
	r.repBell.ring(stateRep, 0)
	return nil
}
