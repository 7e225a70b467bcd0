package sunrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flexrpc/internal/netpoll"
	"flexrpc/internal/stats"
	"flexrpc/internal/xdr"
)

// drivers lists the two read drivers every connection-lifecycle test
// runs under: the blocking reader and netpoll readiness.
var drivers = []struct {
	name    string
	netpoll bool
}{
	{"reader", false},
	{"netpoll", true},
}

func skipUnsupported(t *testing.T, usePoll bool) {
	t.Helper()
	if usePoll && !netpoll.Supported() {
		t.Skip("netpoll unsupported on this platform")
	}
}

// TestServeConnOversizedRecordIsBadMessage: a length word past
// MaxMessageSize ends the connection with an error that wraps
// ErrBadMessage, whichever driver framed it.
func TestServeConnOversizedRecordIsBadMessage(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			skipUnsupported(t, d.netpoll)
			s := newTestServer()
			s.MaxMessageSize = 1024
			s.SetNetpoll(d.netpoll)
			s.SetConcurrency(2)
			drainAtCleanup(t, s)

			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			sc, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- s.ServeConn(sc) }()

			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], lastFragFlag|uint32(s.MaxMessageSize+1))
			if _, err := cc.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-served:
				if !errors.Is(err, ErrBadMessage) {
					t.Fatalf("ServeConn = %v, want an error wrapping ErrBadMessage", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ServeConn did not return after an oversized record")
			}
		})
	}
}

// TestDrainRejectsThenClosesServeConns pins the drain lifecycle on
// connections passed to bare ServeConn. While a blocking handler holds
// Drain open, a call arriving on a second live connection answers
// SYSTEM_ERR, counts one DrainRejects and never runs its handler; the
// admitted call still completes; then Drain closes both connections
// and both ServeConn calls return.
func TestDrainRejectsThenClosesServeConns(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			skipUnsupported(t, d.netpoll)
			entered := make(chan struct{})
			release := make(chan struct{})
			var execs atomic.Int64
			s := newTestServer()
			s.Register(procSlow, func(*xdr.Decoder, *xdr.Encoder) error {
				close(entered)
				<-release
				return nil
			})
			s.Register(procBig, func(*xdr.Decoder, *xdr.Encoder) error {
				execs.Add(1)
				return nil
			})
			e := stats.New(nil)
			s.SetStats(e)
			s.SetNetpoll(d.netpoll)
			s.SetConcurrency(2)

			var clients [2]*Client
			var served [2]chan error
			for i := range clients {
				cc, sc := socketpairConns(t)
				t.Cleanup(func() { cc.Close() })
				served[i] = make(chan error, 1)
				go func(ch chan error) { ch <- s.ServeConn(sc) }(served[i])
				clients[i] = NewClient(cc, testProg, testVers)
				// A served call proves the conn is attached before Drain.
				if err := clients[i].Call(0, nil, nil); err != nil {
					t.Fatalf("warm call %d: %v", i, err)
				}
			}

			slow := make(chan error, 1)
			go func() { slow <- clients[0].Call(procSlow, nil, nil) }()
			<-entered
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				drained <- s.Drain(ctx)
			}()
			for !s.Draining() {
				time.Sleep(time.Millisecond)
			}

			err := clients[1].Call(procBig, nil, nil)
			var rerr *RemoteError
			if !errors.As(err, &rerr) || rerr.Stat != SystemErr {
				t.Fatalf("call during drain = %v, want SYSTEM_ERR", err)
			}
			if got := e.Snapshot().DrainRejects; got != 1 {
				t.Fatalf("DrainRejects = %d, want 1", got)
			}
			if n := execs.Load(); n != 0 {
				t.Fatalf("rejected call ran its handler %d times, want 0", n)
			}

			close(release)
			if err := <-slow; err != nil {
				t.Fatalf("call admitted before the drain: %v", err)
			}
			if err := <-drained; err != nil {
				t.Fatalf("Drain: %v", err)
			}
			for i, ch := range served {
				select {
				case err := <-ch:
					if err != nil {
						t.Fatalf("ServeConn %d: %v", i, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("ServeConn %d did not return after Drain", i)
				}
			}
		})
	}
}
