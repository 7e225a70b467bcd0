package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"flexrpc/internal/core"
	"flexrpc/internal/netpoll"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/shmring"
	"flexrpc/internal/transport/suntcp"
)

// Load shape shared by every workload: a closed loop of nClients
// client goroutines, each with its own connection or ring and at most
// one call in flight, no think time.
const (
	nClients    = 2
	payloadSize = 4096 // bytes per write argument and per read result
	nPayloads   = 32   // distinct seeded write payloads
	schedLen    = 1024 // seeded per-client operation schedule, cycled
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sources are the paper's fileio interface and its two presentations,
// read once per process; compiling them is part of set-up.
type sources struct{ idl, clientPDL, serverPDL string }

func loadSources(repo string) (sources, error) {
	dir := filepath.Join(repo, "examples", "pipes", "fileio")
	var s sources
	for _, f := range []struct {
		name string
		dst  *string
	}{{"fileio.idl", &s.idl}, {"client.pdl", &s.clientPDL}, {"server.pdl", &s.serverPDL}} {
		b, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			return s, err
		}
		*f.dst = string(b)
	}
	return s, nil
}

// compile builds each endpoint's presentation from the IDL and its own
// PDL, as two independently compiled endpoints would.
func compile(src sources) (client, server *pres.Presentation, err error) {
	c, err := core.Compile(core.Options{Frontend: core.FrontendCORBA, Filename: "fileio.idl",
		Source: src.idl, PDL: src.clientPDL, PDLFilename: "client.pdl"})
	if err != nil {
		return nil, nil, err
	}
	s, err := core.Compile(core.Options{Frontend: core.FrontendCORBA, Filename: "fileio.idl",
		Source: src.idl, PDL: src.serverPDL, PDLFilename: "server.pdl"})
	if err != nil {
		return nil, nil, err
	}
	return c.Pres, s.Pres, nil
}

// A step is one scheduled call: the operation, its pre-boxed
// arguments, and for writes the payload's length and checksum.
type step struct {
	op   string
	args []runtime.Value
	n    int    // write payload length
	sum  uint32 // write payload CRC-32C
	read bool
}

// inputs are everything the seed derives: the server's file contents
// (what every read returns), the write payloads, and each client's
// operation order. The program sees only these.
type inputs struct {
	file   []byte
	scheds [nClients][]step
}

func makeInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{file: make([]byte, payloadSize)}
	rng.Read(in.file)
	writes := make([]step, nPayloads)
	for i := range writes {
		p := make([]byte, payloadSize)
		rng.Read(p)
		writes[i] = step{op: "write", args: []runtime.Value{p}, n: len(p), sum: crc32.Checksum(p, castagnoli)}
	}
	read := step{op: "read", args: []runtime.Value{uint32(payloadSize)}, read: true}
	closeWrite := step{op: "close_write"}
	for c := range in.scheds {
		s := make([]step, schedLen)
		for i := 0; i < schedLen; i += 2 {
			if !w.bulk {
				s[i], s[i+1] = closeWrite, closeWrite
				continue
			}
			// Exactly one read and one write per pair, in seeded order.
			wr := writes[rng.Intn(nPayloads)]
			if rng.Intn(2) == 0 {
				s[i], s[i+1] = read, wr
			} else {
				s[i], s[i+1] = wr, read
			}
		}
		in.scheds[c] = s
	}
	return in
}

// fileServer is the application behind the fileio interface: read
// returns the server's file, write checksums and counts what it was
// sent, close_write does nothing. Its counters are what the
// end-of-run verification compares against the clients' tallies.
type fileServer struct {
	fileVal runtime.Value // the file, boxed once
	execs   atomic.Int64  // handler executions, all operations
	written atomic.Int64  // write bytes received
	sum     atomic.Uint64 // sum of the received payloads' CRC-32C
}

func newFileServer(file []byte) *fileServer {
	return &fileServer{fileVal: file}
}

// register installs the handlers on d. When traced, every handler is
// timed (see timeHandler).
func (s *fileServer) register(d *runtime.Dispatcher, traced bool, sink *atomic.Int64) {
	hs := map[string]runtime.Handler{
		"read": func(c *runtime.Call) error {
			s.execs.Add(1)
			if n, _ := c.Arg(0).(uint32); int(n) != len(s.fileVal.([]byte)) {
				return fmt.Errorf("read: count %v, file holds %d bytes", c.Arg(0), len(s.fileVal.([]byte)))
			}
			// The server presentation declares the result
			// [dealloc(never)]: the stub marshals straight out of the
			// server's own storage.
			c.SetResult(s.fileVal)
			return nil
		},
		"write": func(c *runtime.Call) error {
			s.execs.Add(1)
			data := c.ArgBytes(0)
			s.written.Add(int64(len(data)))
			s.sum.Add(uint64(crc32.Checksum(data, castagnoli)))
			return nil
		},
		"close_write": func(c *runtime.Call) error {
			s.execs.Add(1)
			return nil
		},
	}
	for op, h := range hs {
		if traced {
			h = timeHandler(h, sink)
		}
		d.Handle(op, h)
	}
}

// setupTimes splits one set-up into its layers.
type setupTimes struct{ total, compile, bind, dial time.Duration }

// A stack is one workload's running system: a server and nClients
// bound clients. Traced stacks carry the layer probes and stats
// endpoints; untraced stacks are the plain program.
type stack struct {
	clients []*client
	fs      *fileServer

	// Stats endpoints, traced stacks only; serverEP stays nil on the
	// shared-memory stack, whose server plans meter into clientEP.
	clientEP, serverEP *stats.Endpoint

	closeFn func() error
}

// sockSeq numbers the abstract unix sockets one process creates.
var sockSeq atomic.Int64

// setupSun builds the Sun RPC stack: RobustConn{AtMostOnce} over
// suntcp over a unix socket, served by a sunrpc.Server with a 2-worker
// pool whose procedures feed a SessionServer with a sharded reply
// cache and an admission cap the closed loop never reaches.
func setupSun(src sources, in *inputs, usePoll, traced bool, seed int64) (*stack, setupTimes, error) {
	var st setupTimes
	if usePoll && !netpoll.Supported() {
		return nil, st, errors.New("netpoll driver not supported on this platform")
	}
	t0 := time.Now()
	cp, sp, err := compile(src)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()

	fs := newFileServer(in.file)
	disp := runtime.NewDispatcher(sp)
	fs.register(disp, traced, nil)
	splan, err := runtime.NewPlan(sp, runtime.XDRCodec, nil)
	if err != nil {
		return nil, st, err
	}
	cache := runtime.NewReplyCacheSharded(runtime.DefaultReplyCacheSize, 0)
	sess := runtime.NewSessionServer(disp, splan, cache)
	adm := runtime.NewAdmission(runtime.AdmissionOptions{MaxInflight: 64, PerClient: 32})
	sess.SetAdmission(adm)
	var spans *serverSpans
	var srv *sunrpc.Server
	if traced {
		spans = newServerSpans()
		srv = tracedSessionServer(sess, sp.Interface, spans)
	} else {
		srv = suntcp.NewSessionServer(sess, sp.Interface)
	}
	srv.SetConcurrency(2)
	srv.SetNetpoll(usePoll)
	s := &stack{fs: fs}
	if traced {
		// Attached before serving: the server reads these from its
		// accept and worker goroutines.
		s.serverEP = disp.EnableStats()
		splan.SetStats(s.serverEP)
		srv.SetStats(s.serverEP)
		adm.SetStats(s.serverEP)
		cache.SetStats(s.serverEP)
	}
	t2 := time.Now()

	// Abstract unix socket: no file system entry to create or remove.
	addr := fmt.Sprintf("@flexbench-%d-%d", os.Getpid(), sockSeq.Add(1))
	ln, err := net.Listen("unix", addr)
	if err != nil {
		return nil, st, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		derr := srv.Drain(ctx)
		if serr := <-served; derr == nil {
			derr = serr
		}
		return derr
	}
	var ncs []net.Conn
	for i := 0; i < nClients; i++ {
		nc, err := net.Dial("unix", addr)
		if err != nil {
			for _, c := range ncs {
				c.Close()
			}
			stop()
			return nil, st, err
		}
		ncs = append(ncs, nc)
	}
	t3 := time.Now()

	for i, nc := range ncs {
		cid := uint32(i + 1)
		var inner runtime.Conn = suntcp.Dial(nc, cp)
		var innerT, outerT *timedConn
		if traced {
			innerT = &timedConn{inner: inner}
			inner = innerT
		}
		var conn runtime.Conn = runtime.NewRobustConn(inner, cp, runtime.RobustOptions{
			ClientID: cid, AtMostOnce: true, Policy: runtime.RetryPolicy{Seed: seed + int64(cid)}})
		if traced {
			outerT = &timedConn{inner: conn}
			conn = outerT
		}
		cl, err := runtime.NewClient(cp, runtime.XDRCodec, conn, nil)
		if err != nil {
			conn.Close()
			for _, nc := range ncs[i+1:] {
				nc.Close()
			}
			s.closeClients()
			stop()
			return nil, st, err
		}
		c := &client{inv: cl, closer: cl, sched: in.scheds[i], expect: in.file}
		if traced {
			if i == 0 {
				s.clientEP = cl.EnableStats()
			} else {
				cl.SetStats(s.clientEP)
			}
			c.probe = func(sp *callSpan) {
				sp.outer = sat32(time.Duration(outerT.take()))
				sp.inner = sat32(time.Duration(innerT.take()))
				handle, handler := spans.take(cid)
				sp.handle, sp.handler = sat32(time.Duration(handle)), sat32(time.Duration(handler))
			}
		}
		s.clients = append(s.clients, c)
	}
	t4 := time.Now()

	s.closeFn = func() error {
		cerr := s.closeClients()
		if err := stop(); err != nil {
			return err
		}
		return cerr
	}
	st = setupTimes{total: t4.Sub(t0), compile: t1.Sub(t0), bind: t2.Sub(t1) + t4.Sub(t3), dial: t3.Sub(t2)}
	return s, st, nil
}

// setupShm builds the same-domain stack: each client binds its own
// shmring.Bound to its own dispatcher over a private ring. The fileio
// presentations grant no trust, so the binding keeps the validated
// doorbell handoff to a serve goroutine.
func setupShm(src sources, in *inputs, traced bool) (*stack, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cp, sp, err := compile(src)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	s := &stack{fs: newFileServer(in.file)}
	for i := 0; i < nClients; i++ {
		disp := runtime.NewDispatcher(sp)
		sink := new(atomic.Int64)
		s.fs.register(disp, traced, sink)
		b, err := shmring.Connect(cp, disp, runtime.XDRCodec, shmring.Options{})
		if err != nil {
			s.closeClients()
			return nil, st, err
		}
		c := &client{inv: b, closer: b, sched: in.scheds[i], expect: in.file}
		if traced {
			if i == 0 {
				s.clientEP = b.EnableStats()
			} else {
				b.SetStats(s.clientEP)
			}
			b.ServerPlan().SetStats(s.clientEP)
			c.probe = func(sp *callSpan) { sp.handler = sat32(time.Duration(sink.Swap(0))) }
		}
		s.clients = append(s.clients, c)
	}
	t2 := time.Now()
	s.closeFn = s.closeClients
	st = setupTimes{total: t2.Sub(t0), compile: t1.Sub(t0), bind: t2.Sub(t1)}
	return s, st, nil
}

func (s *stack) closeClients() error {
	var first error
	for _, c := range s.clients {
		if err := c.closer.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *stack) close() error { return s.closeFn() }

// verify checks the run's outputs once every client has stopped:
// each completed call ran its handler exactly once (at-most-once
// execution, and no call lost), and the server received exactly the
// bytes the clients' completed writes sent. It returns the number of
// calls found wrong (each byte-count or checksum discrepancy counts
// one), with a description of the first discrepancy.
func (s *stack) verify() (int64, error) {
	var done, wbytes int64
	var wsum uint64
	for _, c := range s.clients {
		done += c.completed
		wbytes += c.wBytes
		wsum += c.wSum
	}
	var bad int64
	var errs []error
	if got := s.fs.execs.Load(); got != done {
		bad += max(got-done, done-got)
		errs = append(errs, fmt.Errorf("handler ran %d times for %d completed calls", got, done))
	}
	if got := s.fs.written.Load(); got != wbytes {
		bad++
		errs = append(errs, fmt.Errorf("server received %d write bytes, clients sent %d", got, wbytes))
	}
	if got := s.fs.sum.Load(); got != wsum {
		bad++
		errs = append(errs, fmt.Errorf("server write checksum %#x, clients sent %#x", got, wsum))
	}
	return bad, errors.Join(errs...)
}

// checkRead compares a read reply byte for byte with the seeded file.
func checkRead(ret runtime.Value, want []byte) bool {
	got, ok := ret.([]byte)
	return ok && bytes.Equal(got, want)
}
