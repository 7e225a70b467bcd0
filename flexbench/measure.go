package main

import (
	"cmp"
	"fmt"
	"io"
	goruntime "runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"flexrpc/internal/runtime"
)

// callSpan is one traced call's layer times in nanoseconds, each
// measured around a boundary the layers already expose:
//
//	total    Client.Invoke / Bound.Invoke
//	outer    inside the Conn given to NewClient (the RobustConn)
//	inner    inside the Conn given to NewRobustConn (suntcp.Conn.Call)
//	handle   inside SessionServer.Handle on the server
//	handler  inside the application handler
type callSpan struct{ total, outer, inner, handle, handler uint32 }

// A client drives one connection closed-loop through its seeded
// schedule, checking every reply.
type client struct {
	inv    runtime.Invoker
	closer io.Closer
	sched  []step
	pos    int
	expect []byte
	probe  func(*callSpan) // traced stacks: collect the call's layer times

	// Tallies over every call, warm-up included: completed calls
	// returned without error (mismatched reads among them), failed ones
	// returned an error.
	attempted, completed, failed, mismatched int64
	wBytes                                   int64  // write bytes of completed writes
	wSum                                     uint64 // sum of their payload CRC-32C
	firstErr                                 error

	// Samples of completed calls in measure windows.
	lat     []uint32 // latency, ns
	spans   []callSpan
	release []func() // unmaps the sample storage
}

func (c *client) run(deadline time.Time, record bool) {
	for {
		st := &c.sched[c.pos]
		if c.pos++; c.pos == len(c.sched) {
			c.pos = 0
		}
		t0 := time.Now()
		_, ret, err := c.inv.Invoke(st.op, st.args, nil, nil)
		t1 := time.Now()
		var sp callSpan
		if c.probe != nil {
			c.probe(&sp)
		}
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("%s: %w", st.op, err)
			}
		} else {
			c.completed++
			if st.read && !checkRead(ret, c.expect) {
				c.mismatched++
				if c.firstErr == nil {
					c.firstErr = fmt.Errorf("read reply differs from the seeded file")
				}
			}
			if st.n > 0 {
				c.wBytes += int64(st.n)
				c.wSum += uint64(st.sum)
			}
			if record {
				d := t1.Sub(t0)
				c.lat = append(c.lat, sat32(d))
				if c.probe != nil {
					sp.total = sat32(d)
					c.spans = append(c.spans, sp)
				}
			}
		}
		if !t1.Before(deadline) {
			return
		}
	}
}

func sat32(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

// maxRate bounds the calls per second one client can complete; sample
// storage is sized from it. Unused capacity costs address space only.
const maxRate = 400_000

// reserve maps sample storage for d of measuring. A run that outgrows
// it keeps recording, in heap storage.
func (c *client) reserve(d time.Duration) error {
	n := int(maxRate*d.Seconds()) + 1<<16
	lat, free, err := offHeap[uint32](n)
	if err != nil {
		return err
	}
	c.lat, c.release = lat, append(c.release, free)
	if c.probe != nil {
		spans, free, err := offHeap[callSpan](n)
		if err != nil {
			return err
		}
		c.spans, c.release = spans, append(c.release, free)
	}
	return nil
}

// releaseSamples unmaps the sample storage; the samples are gone after.
func (c *client) releaseSamples() {
	for _, free := range c.release {
		free()
	}
	c.lat, c.spans, c.release = nil, nil, nil
}

// A window is what one measured slice of a run cost the process.
type window struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	done           int64 // calls completed inside the window
}

func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.mallocs += o.mallocs
	w.bytes += o.bytes
	w.done += o.done
}

// drive runs every client of s closed-loop for d, concurrently, and
// returns once all of them have stopped.
func drive(s *stack, d time.Duration, record bool) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline, record)
		}(c)
	}
	wg.Wait()
}

// measure drives s for d, recording samples, and returns the window's
// wall time, process CPU time and heap allocations.
func measure(s *stack, d time.Duration) window {
	done0 := s.completed()
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t0 := time.Now()
	drive(s, d, true)
	wall := time.Since(t0)
	cpu1 := processCPU()
	goruntime.ReadMemStats(&ms1)
	return window{
		wall:    wall,
		cpu:     cpu1 - cpu0,
		mallocs: ms1.Mallocs - ms0.Mallocs,
		bytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		done:    s.completed() - done0,
	}
}

// sliceStats accumulates the measure slices of one stack: their sum,
// and per slice the throughput, CPU per call and latency percentiles,
// each percentile an exact order statistic over the slice's raw
// samples.
type sliceStats struct {
	win                     window
	rates, cpus, p50s, p99s []float64
	scratch                 []uint32 // off-heap: selection reorders a copy of the slice's samples
}

// newSliceStats prepares for slices of at most d; free releases the
// scratch storage.
func newSliceStats(d time.Duration) (st *sliceStats, free func(), err error) {
	st = &sliceStats{}
	st.scratch, free, err = offHeap[uint32](nClients * (int(maxRate*d.Seconds()) + 1<<16))
	return st, free, err
}

// measure drives s for d and records the slice.
func (st *sliceStats) measure(s *stack, d time.Duration) {
	marks := s.sampleCounts()
	w := measure(s, d)
	st.win.add(w)
	if w.done == 0 {
		return
	}
	st.rates = append(st.rates, float64(w.done)/w.wall.Seconds())
	st.cpus = append(st.cpus, w.cpu.Seconds()*1e6/float64(w.done))
	xs := s.samplesSince(st.scratch[:0], marks)
	st.p50s = append(st.p50s, float64(percentile(xs, 5000))/1e3)
	st.p99s = append(st.p99s, float64(percentile(xs, 9900))/1e3)
}

func (s *stack) completed() int64 {
	var n int64
	for _, c := range s.clients {
		n += c.completed
	}
	return n
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleCounts returns how many latency samples each client holds.
func (s *stack) sampleCounts() []int {
	n := make([]int, len(s.clients))
	for i, c := range s.clients {
		n[i] = len(c.lat)
	}
	return n
}

// samplesSince appends to dst the latency samples each client recorded
// after the counts in marks.
func (s *stack) samplesSince(dst []uint32, marks []int) []uint32 {
	for i, c := range s.clients {
		dst = append(dst, c.lat[marks[i]:]...)
	}
	return dst
}

// latencies merges the clients' latency samples.
func (s *stack) latencies() []uint32 {
	var all []uint32
	for _, c := range s.clients {
		all = append(all, c.lat...)
	}
	return all
}

// spanSamples merges the clients' traced call spans.
func (s *stack) spanSamples() []callSpan {
	var all []callSpan
	for _, c := range s.clients {
		all = append(all, c.spans...)
	}
	return all
}

// reserve maps sample storage for d of measuring on every client.
func (s *stack) reserve(d time.Duration) error {
	for _, c := range s.clients {
		if err := c.reserve(d); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) releaseSamples() {
	for _, c := range s.clients {
		c.releaseSamples()
	}
}

// median returns the middle value of xs (the lower middle for an even
// count); xs must not be empty.
func median[T cmp.Ordered](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}
