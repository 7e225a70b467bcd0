// Package flexload is the load-generator harness for the connection-
// scale experiments: open- and closed-loop traffic from thousands of
// simulated clients, paced by a clock.Clock so the same engine runs
// in real time against a live server or fully deterministically under
// a FakeClock. Latency percentiles come from the existing stats
// histograms (one sharded Endpoint pool merged via Snapshot.Merge),
// so the generator measures with the same instruments the runtime
// exports.
//
// The run protocol is warmup → measure → cooldown: only calls whose
// arrival falls inside the measure window are recorded, so pool
// warmup and ramp-down never pollute the percentiles. Open-loop
// arrivals follow a seeded Poisson schedule per client, and latency
// is measured from the *scheduled* arrival — a slow server makes the
// queue (and the measured latency) grow instead of silently slowing
// the generator down, avoiding coordinated omission.
package flexload

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"flexrpc/internal/clock"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
)

// Mode selects how clients pace their calls.
type Mode int

const (
	// Closed keeps one call in flight per client, thinking Think
	// between completions: offered load adapts to the server, the
	// classic closed-loop benchmark.
	Closed Mode = iota
	// Open issues calls on a seeded Poisson arrival schedule at the
	// aggregate Rate regardless of completions: the server's lateness
	// shows up as queue depth and tail latency, not reduced load.
	Open
)

func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// Target is what the generator drives: one conn per client, one
// operation, one pre-marshaled request body.
type Target struct {
	// Dial returns client id's connection; called once per client
	// before the run starts.
	Dial func(id int) (runtime.Conn, error)
	// Pres names the operations (stats rows, RobustConn wrapping).
	Pres *pres.Presentation
	// Op is the operation name to drive; "" means the first op.
	Op string
	// Request is the marshaled request body sent on every call.
	Request []byte
}

// Options configures a run.
type Options struct {
	Clients int
	Mode    Mode
	// Rate is the aggregate open-loop arrival rate in calls/sec,
	// split across clients (ignored for Closed).
	Rate float64
	// Think is the closed-loop pause between a completion and the
	// next call (ignored for Open). 0 means saturation.
	Think time.Duration
	// Warmup/Measure/Cooldown are the protocol phases; only Measure
	// is required.
	Warmup, Measure, Cooldown time.Duration
	// Clock paces the run; nil means clock.WallClock. Deterministic
	// runs require a *clock.FakeClock.
	Clock clock.Clock
	// Seed derives every client's arrival/jitter rng; identical seeds
	// (plus a FakeClock) reproduce a run byte-for-byte.
	Seed int64
	// ClientIDBase offsets every client's global identity: worker k of
	// a multi-process run passes its client offset so at-most-once
	// ClientIDs (and the derived seeds) never collide across the
	// processes sharing one server.
	ClientIDBase int
	// Robust, when non-nil, wraps each client's conn in a RobustConn
	// with this template: ClientID and the retry-jitter seed are
	// re-derived per client, Clock is overridden with the run's.
	Robust *runtime.RobustOptions
	// ServerStats, when non-nil, is the server endpoint whose shed
	// counter the report quotes.
	ServerStats *stats.Endpoint
	// SLO bounds "good" latency: goodput counts only completions at
	// or under it. 0 counts every completion.
	SLO time.Duration
	// MaxQueue bounds each open-loop client's backlog of scheduled-
	// but-unissued arrivals; overflow is counted, not queued.
	// 0 means 1024.
	MaxQueue int
	// Deterministic runs every client on one goroutine in virtual
	// time: Clock must be a *clock.FakeClock (auto-advance is
	// enabled so retry backoffs advance it), and two runs with the
	// same seed produce identical reports.
	Deterministic bool
}

// Report is the outcome of a run. All fields are plain values, so
// json.Marshal of two identical runs is byte-identical.
type Report struct {
	Clients   int    `json:"clients"`
	Mode      string `json:"mode"`
	Op        string `json:"op"`
	MeasureNs int64  `json:"measure_ns"`

	// Offered counts measure-window scheduled arrivals (open loop)
	// or issued calls (closed loop, where arrival == issue). Issued
	// and the rest count calls whose arrival fell in the window.
	Offered   uint64 `json:"offered"`
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors"`
	Timeouts  uint64 `json:"timeouts"`

	SLONs     int64  `json:"slo_ns,omitempty"`
	WithinSLO uint64 `json:"within_slo"`
	// GoodputPerSec is completions (within SLO, when one is set) per
	// measure-window second.
	GoodputPerSec float64 `json:"goodput_per_sec"`

	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`

	// Retries and Pushbacks are whole-run client-side session
	// counters (they cannot be phase-gated); sheds are the server's.
	Retries         uint64  `json:"retries"`
	RetriesPerCall  float64 `json:"retries_per_call"`
	Pushbacks       uint64  `json:"pushbacks"`
	RetrySuppressed uint64  `json:"retry_suppressed"`
	Sheds           uint64  `json:"sheds"`

	// QueueMax is the deepest per-client open-loop backlog seen;
	// QueueDrops counts arrivals past MaxQueue.
	QueueMax   int    `json:"queue_max"`
	QueueDrops uint64 `json:"queue_drops"`

	// Merged is the combined client-side stats snapshot (excluded
	// from JSON: histograms are not part of the stable report).
	Merged *stats.Snapshot `json:"-"`
}

// JSON renders the report as stable, indented JSON.
func (r *Report) JSON() []byte {
	b, _ := json.MarshalIndent(r, "", "  ")
	return append(b, '\n')
}

// Text renders the report for humans.
func (r *Report) Text() string {
	return fmt.Sprintf(
		"flexload: %d clients, %s loop, op %s, measure %v\n"+
			"  offered %d  issued %d  completed %d  errors %d  timeouts %d\n"+
			"  goodput %.1f/s (within SLO %d)\n"+
			"  latency mean %v  p50 %v  p99 %v  p999 %v\n"+
			"  retries/call %.3f  pushbacks %d  suppressed %d  sheds %d  queue max %d (drops %d)\n",
		r.Clients, r.Mode, r.Op, time.Duration(r.MeasureNs),
		r.Offered, r.Issued, r.Completed, r.Errors, r.Timeouts,
		r.GoodputPerSec, r.WithinSLO,
		time.Duration(r.MeanNs), time.Duration(r.P50Ns), time.Duration(r.P99Ns), time.Duration(r.P999Ns),
		r.RetriesPerCall, r.Pushbacks, r.RetrySuppressed, r.Sheds, r.QueueMax, r.QueueDrops)
}

// statsShards bounds the endpoint pool: clients share endpoints
// (counters are atomic), so 10k clients do not allocate 10k
// histogram sets.
const statsShards = 64

// defaultMaxQueue bounds open-loop backlogs when Options.MaxQueue is 0.
const defaultMaxQueue = 1024

type client struct {
	id   int
	conn runtime.Conn
	ep   *stats.Endpoint
	rng  *rand.Rand

	replyBuf []byte

	// Open-loop arrival state.
	meanNs      float64 // mean inter-arrival in ns
	nextArrival time.Time
	queue       []time.Time
	qhead       int
	queueMax    int
	drops       uint64

	// Measure-window tallies.
	offered, issued, completed, errs, withinSLO uint64
}

type run struct {
	t     *Target
	o     *Options
	clock clock.Clock
	fake  *clock.FakeClock // non-nil in deterministic mode

	opIdx  int
	opName string

	start, measStart, measEnd, coolEnd time.Time

	clients []*client
	shards  []*stats.Endpoint
}

// Run drives the target per the options and reports the measured
// window. It dials every client, runs warmup/measure/cooldown, closes
// the conns, and merges the stats shards into the report.
func Run(t Target, o Options) (*Report, error) {
	if t.Dial == nil {
		return nil, errors.New("flexload: Target.Dial is required")
	}
	if t.Pres == nil {
		return nil, errors.New("flexload: Target.Pres is required")
	}
	if o.Clients <= 0 {
		return nil, errors.New("flexload: Options.Clients must be positive")
	}
	if o.Measure <= 0 {
		return nil, errors.New("flexload: Options.Measure must be positive")
	}
	if o.Mode == Open && o.Rate <= 0 {
		return nil, errors.New("flexload: open loop requires Options.Rate")
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = defaultMaxQueue
	}

	r := &run{t: &t, o: &o}
	r.clock = o.Clock
	if o.Deterministic {
		fc, ok := r.clock.(*clock.FakeClock)
		if r.clock == nil {
			fc, ok = clock.NewFakeClock(), true
		}
		if !ok {
			return nil, errors.New("flexload: deterministic mode requires a *clock.FakeClock")
		}
		if o.Mode == Closed && o.Think <= 0 {
			return nil, errors.New("flexload: deterministic closed loop requires think time")
		}
		// Any sleep inside the stack (retry backoff, advisory
		// retry-after) advances virtual time instead of blocking the
		// single engine goroutine.
		fc.AutoAdvance(true)
		r.fake = fc
		r.clock = fc
	} else if r.clock == nil {
		r.clock = clock.WallClock
	}

	ops := make([]string, len(t.Pres.Interface.Ops))
	for i := range t.Pres.Interface.Ops {
		ops[i] = t.Pres.Interface.Ops[i].Name
	}
	r.opIdx = 0
	if t.Op != "" {
		r.opIdx = -1
		for i, n := range ops {
			if n == t.Op {
				r.opIdx = i
				break
			}
		}
		if r.opIdx < 0 {
			return nil, fmt.Errorf("flexload: operation %q not in interface", t.Op)
		}
	}
	r.opName = ops[r.opIdx]

	nShards := statsShards
	if o.Clients < nShards {
		nShards = o.Clients
	}
	r.shards = make([]*stats.Endpoint, nShards)
	for i := range r.shards {
		r.shards[i] = stats.New(ops)
	}

	r.clients = make([]*client, o.Clients)
	for id := range r.clients {
		conn, err := t.Dial(id)
		if err != nil {
			for _, c := range r.clients[:id] {
				c.conn.Close()
			}
			return nil, fmt.Errorf("flexload: dial client %d: %w", id, err)
		}
		ep := r.shards[id%nShards]
		gid := o.ClientIDBase + id // process-global identity
		if o.Robust != nil {
			ro := *o.Robust
			ro.ClientID = uint32(gid + 1)
			ro.Clock = r.clock
			ro.Policy.Seed = int64(splitmix64(uint64(o.Seed)*0x9E3779B97F4A7C15 + uint64(gid) + 1))
			rc := runtime.NewRobustConn(conn, t.Pres, ro)
			rc.SetStats(ep)
			conn = rc
		}
		r.clients[id] = &client{
			id:   id,
			conn: conn,
			ep:   ep,
			rng:  rand.New(rand.NewSource(int64(splitmix64(uint64(o.Seed) + uint64(gid)*0xBF58476D1CE4E5B9 + 7)))),
		}
	}
	defer func() {
		for _, c := range r.clients {
			c.conn.Close()
		}
	}()

	r.start = r.clock.Now()
	r.measStart = r.start.Add(o.Warmup)
	r.measEnd = r.measStart.Add(o.Measure)
	r.coolEnd = r.measEnd.Add(o.Cooldown)

	for _, c := range r.clients {
		if o.Mode == Open {
			c.meanNs = float64(o.Clients) / o.Rate * float64(time.Second)
			c.nextArrival = r.start.Add(c.interarrival())
		}
	}

	if o.Deterministic {
		r.runVirtual()
	} else {
		r.runWall()
	}
	return r.report(), nil
}

// firstEvent is client c's initial wake time.
func (r *run) firstEvent(c *client) time.Time {
	if r.o.Mode == Open {
		return c.nextArrival
	}
	if r.o.Think > 0 {
		// Stagger closed-loop starts uniformly over one think time so
		// 10k clients do not fire in lockstep.
		return r.start.Add(time.Duration(c.rng.Int63n(int64(r.o.Think))))
	}
	return r.start
}

// interarrival samples the client's next Poisson gap.
func (c *client) interarrival() time.Duration {
	d := time.Duration(c.rng.ExpFloat64() * c.meanNs)
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

// step runs one client event at the current clock instant: at most
// one call. It returns the next wake time, or done=true when the
// client has no further events.
func (r *run) step(c *client) (next time.Time, done bool) {
	now := r.clock.Now()
	if r.o.Mode == Closed {
		if !now.Before(r.coolEnd) {
			return time.Time{}, true
		}
		r.call(c, now)
		return r.clock.Now().Add(r.o.Think), false
	}

	// Open loop: accrue every arrival scheduled by now (bounded by
	// the cooldown end), then issue at most one queued call.
	for !c.nextArrival.After(now) && c.nextArrival.Before(r.coolEnd) {
		at := c.nextArrival
		c.nextArrival = at.Add(c.interarrival())
		if !at.Before(r.measStart) && at.Before(r.measEnd) {
			c.offered++
		}
		if len(c.queue)-c.qhead >= r.o.MaxQueue {
			c.drops++
			continue
		}
		c.queue = append(c.queue, at)
		if depth := len(c.queue) - c.qhead; depth > c.queueMax {
			c.queueMax = depth
		}
	}
	if !now.Before(r.coolEnd) {
		return time.Time{}, true
	}
	if c.qhead < len(c.queue) {
		at := c.queue[c.qhead]
		c.qhead++
		if c.qhead == len(c.queue) {
			c.queue = c.queue[:0]
			c.qhead = 0
		}
		r.call(c, at)
		return r.clock.Now(), false
	}
	if !c.nextArrival.Before(r.coolEnd) {
		return time.Time{}, true
	}
	return c.nextArrival, false
}

// call performs one call whose (scheduled) arrival is at; latency is
// measured from the arrival, so open-loop queue wait counts.
func (r *run) call(c *client, at time.Time) {
	measured := !at.Before(r.measStart) && at.Before(r.measEnd)
	reply, err := c.conn.Call(r.opIdx, r.t.Request, c.replyBuf)
	end := r.clock.Now()
	if reply != nil {
		c.replyBuf = reply[:0]
	}
	if !measured {
		return
	}
	if r.o.Mode == Closed {
		c.offered++
	}
	c.issued++
	lat := end.Sub(at)
	outcome := stats.OK
	switch {
	case err == nil:
		c.completed++
		if r.o.SLO <= 0 || lat <= r.o.SLO {
			c.withinSLO++
		}
	case errors.Is(err, context.DeadlineExceeded):
		c.errs++
		outcome = stats.TimedOut
	default:
		c.errs++
		outcome = stats.Failed
	}
	c.ep.RecordCall(r.opIdx, lat, len(r.t.Request), len(reply), outcome)
}

// runWall drives one goroutine per client against the real clock (or
// any blocking Clock).
func (r *run) runWall() {
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			next := r.firstEvent(c)
			for {
				if d := next.Sub(r.clock.Now()); d > 0 {
					if r.clock.Sleep(ctx, d) != nil {
						return
					}
				}
				var done bool
				next, done = r.step(c)
				if done {
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// eventHeap orders (time, id) pairs; ties break on id, so the virtual
// engine is fully deterministic.
type eventHeap []event

type event struct {
	at time.Time
	id int
}

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// runVirtual is the deterministic discrete-event engine: one
// goroutine, virtual time. Events run in (time, client id) order and
// the FakeClock advances exactly to each event, so a seeded run is a
// pure function of its options.
func (r *run) runVirtual() {
	h := make(eventHeap, 0, len(r.clients))
	for _, c := range r.clients {
		h = append(h, event{r.firstEvent(c), c.id})
	}
	heap.Init(&h)
	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		if d := ev.at.Sub(r.fake.Now()); d > 0 {
			r.fake.Advance(d)
		}
		next, done := r.step(r.clients[ev.id])
		if !done {
			heap.Push(&h, event{next, ev.id})
		}
	}
}

// report merges the stats shards and the per-client tallies.
func (r *run) report() *Report {
	merged := r.shards[0].Snapshot()
	for _, ep := range r.shards[1:] {
		merged.Merge(ep.Snapshot())
	}
	rep := &Report{
		Clients:   r.o.Clients,
		Mode:      r.o.Mode.String(),
		Op:        r.opName,
		MeasureNs: int64(r.o.Measure),
		SLONs:     int64(r.o.SLO),
		Merged:    merged,
	}
	for _, c := range r.clients {
		rep.Offered += c.offered
		rep.Issued += c.issued
		rep.Completed += c.completed
		rep.Errors += c.errs
		rep.WithinSLO += c.withinSLO
		rep.QueueDrops += c.drops
		if c.queueMax > rep.QueueMax {
			rep.QueueMax = c.queueMax
		}
	}
	for i := range merged.Ops {
		if merged.Ops[i].Name == r.opName {
			op := &merged.Ops[i]
			rep.Timeouts = op.Timeouts
			rep.Retries = op.Retries
			rep.MeanNs = int64(op.Latency.Mean())
			rep.P50Ns = int64(op.Latency.Quantile(0.50))
			rep.P99Ns = int64(op.Latency.Quantile(0.99))
			rep.P999Ns = int64(op.Latency.Quantile(0.999))
		}
	}
	rep.Pushbacks = merged.Pushbacks
	rep.RetrySuppressed = merged.RetrySuppressed
	if r.o.ServerStats != nil {
		rep.Sheds = r.o.ServerStats.Snapshot().Sheds
	}
	good := rep.Completed
	if r.o.SLO > 0 {
		good = rep.WithinSLO
	}
	rep.GoodputPerSec = float64(good) / r.o.Measure.Seconds()
	if rep.Issued > 0 {
		rep.RetriesPerCall = float64(rep.Retries) / float64(rep.Issued)
	}
	return rep
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed way to
// derive independent per-client seeds from one run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
