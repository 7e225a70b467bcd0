// Command flexbench is flexrpc's benchmark. It drives the paper's
// fileio interface, under its client and server PDLs, through the
// public entry points Client.Invoke and shmring.Bound.Invoke, on three
// workloads (see README.md for why each exists):
//
//	null-netpoll    close_write over RobustConn → suntcp, netpoll server driver
//	bulk-reader     4 KiB read/write mix, same stack, goroutine-reader driver
//	samedomain-shm  4 KiB read/write mix over shmring doorbell bindings
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced
// run (-trace 1) times each layer from outside the program and prints
// the per-layer metrics. Every reply is verified; the last line of
// standard output is a JSON result, and the exit status is 1 when any
// call failed or any output was wrong.
//
// Run it from the repository root:
//
//	bash flexbench/run.sh --workload bulk-reader --seed 1 --seconds 10 --trace 0
//	bash flexbench/run.sh --workload all --seconds 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A workload is one traffic mix on one stack.
type workload struct {
	name    string
	bulk    bool // seeded 1:1 read/write mix of 4 KiB, else close_write
	shm     bool // same-domain shmring bindings, else Sun RPC over a unix socket
	netpoll bool // netpoll server driver, else goroutine readers
}

var workloads = []*workload{
	{name: "null-netpoll", netpoll: true},
	{name: "bulk-reader", bulk: true},
	{name: "samedomain-shm", bulk: true, shm: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) setup(src sources, in *inputs, traced bool, seed int64) (*stack, setupTimes, error) {
	if w.shm {
		return setupShm(src, in, traced)
	}
	return setupSun(src, in, w.netpoll, traced, seed)
}

// A metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	repo     string
	// corruptExpected flips one byte of the payload the clients expect
	// read replies to carry; the run must then fail verification.
	corruptExpected bool
}

const (
	setupReps    = 31                     // set-ups per run; setup_s is their median
	warmupFor    = 500 * time.Millisecond // per stack, before measuring
	reconcileTol = 10.0                   // % the client span medians may miss the Invoke median by
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed for payloads and operation order")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	repo := flag.String("repo", ".", "flexrpc repository root (holds examples/pipes/fileio)")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *name == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), repo: *repo}
	var res *result
	var err error
	if *name == "all" {
		res, err = runAll(cfg)
	} else {
		if cfg.workload = workloadByName(*name); cfg.workload == nil {
			fmt.Fprintf(os.Stderr, "flexbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res, err = runOne(cfg, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// runOne prints the host fingerprint, runs cfg's workload traced or
// untraced, and prints a human-readable report of the result.
func runOne(cfg config, traced bool) (*result, error) {
	fp, err := json.Marshal(fingerprint(cfg, traced))
	if err != nil {
		return nil, err
	}
	fmt.Printf("host %s\n", fp)
	var res *result
	var notes []string
	if traced {
		res, notes, err = runTraced(cfg)
	} else {
		res, notes, err = runUntraced(cfg)
	}
	if err != nil {
		return nil, err
	}
	report(cfg.workload.name, traced, res, notes)
	return res, nil
}

// runAll runs every workload untraced and then traced, and folds the
// results into one, with metric names prefixed by workload.
func runAll(cfg config) (*result, error) {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.workload = w
			res, err := runOne(cfg, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, m := range res.Metrics {
				all.Metrics[w.name+"."+k] = m
			}
		}
	}
	return all, nil
}

// setupOnce builds an untraced stack and tears it down again,
// returning how long the set-up took.
func setupOnce(cfg config, src sources, in *inputs) (setupTimes, error) {
	s, t, err := cfg.workload.setup(src, in, false, cfg.seed)
	if err != nil {
		return t, fmt.Errorf("set-up: %w", err)
	}
	if err := s.close(); err != nil {
		return t, fmt.Errorf("tear-down: %w", err)
	}
	return t, nil
}

// setUp builds the untraced stack to measure and returns it with its
// set-up times, after reps-1 more set-ups and tear-downs.
func setUp(cfg config, src sources, in *inputs, reps int) (*stack, []setupTimes, error) {
	var times []setupTimes
	for len(times) < reps-1 {
		t, err := setupOnce(cfg, src, in)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
	}
	s, t, err := cfg.workload.setup(src, in, false, cfg.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	return s, append(times, t), nil
}

// prepare loads the sources and derives the seeded inputs.
func prepare(cfg config) (sources, *inputs, error) {
	src, err := loadSources(cfg.repo)
	if err != nil {
		return src, nil, err
	}
	in := makeInputs(cfg.workload, cfg.seed)
	return src, in, nil
}

// expectFor returns the read payload clients compare replies with.
func expectFor(cfg config, in *inputs) []byte {
	if !cfg.corruptExpected {
		return in.file
	}
	bad := append([]byte(nil), in.file...)
	bad[len(bad)/2] ^= 0x5a
	return bad
}

// subWindow is the length of the slices a measure window is cut into.
// Throughput, CPU per call and the latency percentiles are computed
// per slice and reported as the median over slices, so a burst of
// contention from outside the run that is confined to a few slices
// does not move them.
const subWindow = time.Second

// runUntraced measures the end-to-end metrics on the plain program.
func runUntraced(cfg config) (*result, []string, error) {
	src, in, err := prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	s, times, err := setUp(cfg, src, in, 1)
	if err != nil {
		return nil, nil, err
	}
	defer s.releaseSamples()
	for _, c := range s.clients {
		c.expect = expectFor(cfg, in)
	}
	st, freeStats, err := newSliceStats(subWindow)
	if err == nil {
		defer freeStats()
		err = s.reserve(cfg.seconds)
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	drive(s, warmupFor, false) // pools, caches and the heap reach steady state
	slices := int((cfg.seconds + subWindow - 1) / subWindow)
	for i, left := 0, cfg.seconds; left > 0; i, left = i+1, left-subWindow {
		st.measure(s, min(left, subWindow))
		// The other set-ups run between slices, so that they too
		// sample the host over the whole run.
		for len(times) < 1+(setupReps-1)*(i+1)/slices {
			t, err := setupOnce(cfg, src, in)
			if err != nil {
				s.close()
				return nil, nil, err
			}
			times = append(times, t)
		}
	}
	res, notes := finish([]*stack{s})
	if cerr := s.close(); cerr != nil {
		return nil, nil, fmt.Errorf("tear-down: %w", cerr)
	}
	if st.win.done == 0 {
		return nil, nil, fmt.Errorf("no call completed in the measure window")
	}
	lat := s.latencies()
	n := float64(st.win.done)
	var totals []time.Duration
	for _, t := range times {
		totals = append(totals, t.total)
	}
	res.Metrics = map[string]metric{
		"latency_p50_us":       {median(st.p50s), "us"},
		"cpu_us_per_call":      {median(st.cpus), "us"},
		"allocs_per_call":      {float64(st.win.mallocs) / n, "allocs"},
		"alloc_bytes_per_call": {float64(st.win.bytes) / n, "B"},
		"setup_s":              {median(totals).Seconds(), "s"},
	}
	notes = append(notes,
		fmt.Sprintf("calls_per_s %.6g calls/s and latency_p99_us %.6g us (slice medians; reported with the traced run's per-layer metrics)",
			median(st.rates), median(st.p99s)),
		fmt.Sprintf("measure window %.3f s in %d slices of about %d calls; per-slice values are nearest-rank order statistics over the raw samples", st.win.wall.Seconds(), len(st.rates), len(lat)/len(st.rates)),
		fmt.Sprintf("whole-window latency over n=%d calls: p50 %.3f us, p99 %.3f us (%d samples above it)",
			len(lat), float64(percentile(lat, 5000))/1e3, float64(percentile(lat, 9900))/1e3, len(lat)-(9900*len(lat)+9999)/10000),
		fmt.Sprintf("failed_frac %.6g (failed or mis-verified over attempted)", float64(res.Failed)/float64(res.Attempted)),
		fmt.Sprintf("%d set-ups, spread over the run", len(times)))
	return res, notes, nil
}

// runTraced measures the per-layer metrics. It runs an untraced and a
// traced stack side by side in alternating slices, so the tracing
// overhead is measured under the same conditions as the layers.
func runTraced(cfg config) (*result, []string, error) {
	src, in, err := prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	plain, times, err := setUp(cfg, src, in, setupReps)
	if err != nil {
		return nil, nil, err
	}
	traced, _, err := cfg.workload.setup(src, in, true, cfg.seed)
	if err != nil {
		plain.close()
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	stacks := []*stack{plain, traced}
	abort := func(err error) (*result, []string, error) {
		for _, s := range stacks {
			s.close()
		}
		return nil, nil, err
	}
	// Half the time each, in alternating slices, the order flipping
	// every pair so drift favours neither side.
	pairs := int(cfg.seconds/(2*subWindow)) + 1
	slice := cfg.seconds / time.Duration(2*pairs)
	st, freeStats, err := newSliceStats(slice)
	if err != nil {
		return abort(err)
	}
	defer freeStats()
	for _, s := range stacks {
		defer s.releaseSamples()
		for _, c := range s.clients {
			c.expect = expectFor(cfg, in)
		}
		if err := s.reserve(cfg.seconds / 2); err != nil {
			return abort(err)
		}
	}
	for _, s := range stacks {
		drive(s, warmupFor/2, false)
	}
	var tracedWin window
	for p := 0; p < pairs; p++ {
		if p%2 == 0 {
			st.measure(plain, slice)
			tracedWin.add(measure(traced, slice))
		} else {
			tracedWin.add(measure(traced, slice))
			st.measure(plain, slice)
		}
	}
	res, notes := finish(stacks)
	if cfg.workload.netpoll {
		if got := traced.serverEP.Snapshot().PollerConnsRegistered; got != nClients {
			res.Failed++
			res.Correct = false
			notes = append(notes, fmt.Sprintf("FAIL: netpoll registered %d of %d connections", got, nClients))
		}
	}
	for _, s := range stacks {
		if cerr := s.close(); cerr != nil {
			return nil, nil, fmt.Errorf("tear-down: %w", cerr)
		}
	}
	if st.win.done == 0 || tracedWin.done == 0 {
		return nil, nil, fmt.Errorf("no call completed in a measure window")
	}
	res.Metrics, notes = layerMetrics(cfg.workload, plain, traced, st, times, notes)
	return res, notes, nil
}

// finish verifies the stacks once their clients have stopped and
// tallies the run's calls. Every failed call, mis-verified reply and
// end-of-run discrepancy counts as failed.
func finish(stacks []*stack) (*result, []string) {
	res := &result{Correct: true}
	var notes []string
	for _, s := range stacks {
		for _, c := range s.clients {
			res.Attempted += c.attempted
			res.Failed += c.failed + c.mismatched
			if c.firstErr != nil {
				notes = append(notes, "FAIL: "+c.firstErr.Error())
			}
		}
		bad, err := s.verify()
		res.Failed += bad
		if err != nil {
			notes = append(notes, "FAIL: "+strings.ReplaceAll(err.Error(), "\n", "; "))
		}
	}
	// Discrepancies found only at the end can outnumber the calls.
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, notes
}

// layerMetrics derives the per-layer metrics from the traced stack's
// call spans and stats endpoints, and the load metrics too sensitive to
// host contention to gate on (throughput, tail latency) from the
// untraced stack's slices.
func layerMetrics(w *workload, plain, traced *stack, plainSt *sliceStats, times []setupTimes, notes []string) (map[string]metric, []string) {
	spans := traced.spanSamples()
	med := func(f func(*callSpan) int64) float64 {
		xs := make([]uint32, len(spans))
		for i := range spans {
			xs[i] = sat32(time.Duration(f(&spans[i])))
		}
		return float64(percentile(xs, 5000)) / 1e3
	}
	total := med(func(s *callSpan) int64 { return int64(s.total) })
	handler := med(func(s *callSpan) int64 { return int64(s.handler) })
	var marshal, sessClient, roundtrip, sessServer, sunrpcRT, handoff, sum float64
	if w.shm {
		handoff = med(func(s *callSpan) int64 { return int64(s.total) - int64(s.handler) })
		sum = handoff + handler
	} else {
		marshal = med(func(s *callSpan) int64 { return int64(s.total) - int64(s.outer) })
		sessClient = med(func(s *callSpan) int64 { return int64(s.outer) - int64(s.inner) })
		roundtrip = med(func(s *callSpan) int64 { return int64(s.inner) })
		sessServer = med(func(s *callSpan) int64 { return int64(s.handle) - int64(s.handler) })
		sunrpcRT = med(func(s *callSpan) int64 { return int64(s.inner) - int64(s.handle) })
		sum = marshal + sessClient + roundtrip
	}
	reconcile := math.Abs(sum-total) / total * 100
	notes = append(notes, fmt.Sprintf("client spans sum to %.3f us against an Invoke median of %.3f us over n=%d traced calls (%.2f%%, tolerance %.0f%%)",
		sum, total, len(spans), reconcile, reconcileTol))
	if reconcile > reconcileTol {
		notes = append(notes, "WARN: client layer spans do not reconcile with the Invoke total")
	}

	plainLat := plain.latencies()
	plainP50 := float64(percentile(plainLat, 5000)) / 1e3

	var calls float64
	for _, c := range traced.clients {
		calls += float64(c.completed)
	}
	per := func(n uint64) float64 { return float64(n) / calls }
	cs := traced.clientEP.Snapshot()
	ss := traced.serverEP.Snapshot() // empty on the shared-memory stack
	var retries, replays uint64
	for _, op := range cs.Ops {
		retries += op.Retries
	}
	for _, op := range ss.Ops {
		replays += op.Replays
	}
	var perFlush float64
	if ss.Flushes > 0 {
		perFlush = float64(ss.FlushedRecords) / float64(ss.Flushes)
	}
	var compile, bind, dial []time.Duration
	for _, t := range times {
		compile = append(compile, t.compile)
		bind = append(bind, t.bind)
		dial = append(dial, t.dial)
	}
	m := map[string]metric{
		"runtime.client.marshal_us":            {marshal, "us"},
		"runtime.session.client_us":            {sessClient, "us"},
		"transport.suntcp.roundtrip_us":        {roundtrip, "us"},
		"runtime.session.server_us":            {sessServer, "us"},
		"app.handler_us":                       {handler, "us"},
		"sunrpc.server.runtime_us":             {sunrpcRT, "us"},
		"transport.shmring.handoff_us":         {handoff, "us"},
		"runtime.plan.copied_bytes_per_call":   {per(cs.Copy.Bytes + ss.Copy.Bytes), "B"},
		"runtime.plan.alloced_bytes_per_call":  {per(cs.Alloc.Bytes + ss.Alloc.Bytes), "B"},
		"sunrpc.server.records_per_flush":      {perFlush, "records"},
		"netpoll.wakeups_per_call":             {per(ss.PollerWakeups), "count"},
		"netpoll.partial_reads_per_call":       {per(ss.PartialReads), "count"},
		"runtime.session.retries_per_call":     {per(retries), "count"},
		"runtime.session.replays_per_call":     {per(replays), "count"},
		"runtime.admission.pushbacks_per_call": {per(cs.Pushbacks), "count"},
		"core.compile_s":                       {median(compile).Seconds(), "s"},
		"runtime.bind_s":                       {median(bind).Seconds(), "s"},
		"transport.dial_s":                     {median(dial).Seconds(), "s"},
		"host.cpu_util":                        {plainSt.win.cpu.Seconds() / (plainSt.win.wall.Seconds() * float64(goruntime.NumCPU())), "fraction"},
		"calls_per_s":                          {median(plainSt.rates), "calls/s"},
		"latency_p99_us":                       {median(plainSt.p99s), "us"},
		"trace.latency_p50_us":                 {total, "us"},
		"trace.overhead_pct":                   {(total/plainP50 - 1) * 100, "%"},
		"trace.reconcile_err_pct":              {reconcile, "%"},
	}
	notes = append(notes, fmt.Sprintf("untraced latency_p50_us %.3f over n=%d calls in the interleaved slices", plainP50, len(plainLat)))
	return m, notes
}

// report prints a run's metrics for a reader, one per line.
func report(name string, traced bool, res *result, notes []string) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("flexbench %s: %s metrics, %d calls, %d failed\n", name, kind, res.Attempted, res.Failed)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Printf("  %-38s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Printf("  %s\n", n)
	}
}

// fingerprint identifies the host and build a result came from.
func fingerprint(cfg config, traced bool) map[string]any {
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		kernel = utsString(uts.Sysname[:]) + " " + utsString(uts.Release[:])
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var modified bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && rev != "unknown" {
			rev += "-dirty"
		}
	}
	return map[string]any{
		"cpu_model":    cpuModel(),
		"nproc":        goruntime.NumCPU(),
		"gomaxprocs":   goruntime.GOMAXPROCS(0),
		"kernel":       kernel,
		"go_version":   goruntime.Version(),
		"git_revision": rev,
		"seed":         cfg.seed,
		"workload":     cfg.workload.name,
		"traced":       traced,
		"seconds":      cfg.seconds.Seconds(),
	}
}

func utsString[T int8 | uint8](b []T) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
