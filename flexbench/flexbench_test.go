package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/transport/suntcp"
)

// TestPercentileMatchesSort checks the quickselect estimator against a
// sort-based nearest-rank reference on seeded inputs: random, heavily
// duplicated, already sorted and reversed.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ranks := []int{1, 100, 2500, 5000, 7500, 9000, 9900, 9990, 9999, 10000}
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 10007} {
		for shape := 0; shape < 4; shape++ {
			xs := make([]uint32, n)
			for i := range xs {
				switch shape {
				case 0:
					xs[i] = rng.Uint32()
				case 1:
					xs[i] = uint32(rng.Intn(5))
				case 2:
					xs[i] = uint32(i)
				case 3:
					xs[i] = uint32(n - i)
				}
			}
			ref := append([]uint32(nil), xs...)
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			for _, p := range ranks {
				k := int(math.Ceil(float64(p) * float64(n) / 10000))
				if k < 1 {
					k = 1
				}
				want := ref[k-1]
				if got := percentile(append([]uint32(nil), xs...), p); got != want {
					t.Errorf("n=%d shape=%d p=%d/10000: got %d, want %d", n, shape, p, got, want)
				}
			}
			// Successive selections on one reordered slice stay exact.
			work := append([]uint32(nil), xs...)
			for _, p := range ranks {
				k := int(math.Ceil(float64(p) * float64(n) / 10000))
				if k < 1 {
					k = 1
				}
				if got := percentile(work, p); got != ref[k-1] {
					t.Errorf("n=%d shape=%d p=%d/10000 on reused slice: got %d, want %d", n, shape, p, got, ref[k-1])
				}
			}
		}
	}
}

// TestTimedConnForwards checks that a timing wrapper keeps the framing
// decision of the Conn it wraps: the runtime adds its status word only
// for Conns that are not self-framing, so a wrapper that changed the
// answer would change the wire format under trace.
func TestTimedConnForwards(t *testing.T) {
	p := compileClient(t)
	a, b := net.Pipe()
	defer b.Close()
	sun := suntcp.Dial(a, p)
	rc := runtime.NewRobustConn(sun, p, runtime.RobustOptions{ClientID: 1, AtMostOnce: true})
	defer rc.Close()
	for _, c := range []struct {
		name    string
		conn    runtime.Conn
		framing bool
	}{{"suntcp", sun, true}, {"RobustConn", rc, false}} {
		if got := (&timedConn{inner: c.conn}).SelfFraming(); got != c.framing {
			t.Errorf("%s: wrapped SelfFraming %v, want %v", c.name, got, c.framing)
		}
	}
}

func compileClient(t *testing.T) *pres.Presentation {
	t.Helper()
	src, err := loadSources("..")
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// benchSpec is the part of BENCHMARK.json the smoke test checks
// results against.
type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each run verifies and reports every metric
// BENCHMARK.json names, finite and with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		cfg := config{workload: w, seed: 3, seconds: 300 * time.Millisecond, repo: ".."}
		for _, traced := range []bool{false, true} {
			run, want := runUntraced, spec.EndToEnd
			if traced {
				run, want = runTraced, spec.PerLayer
			}
			res, notes, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %q", w.name, traced, res.Correct, res.Attempted, res.Failed, notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				if e := res.Metrics["trace.reconcile_err_pct"].Value; e > reconcileTol {
					t.Errorf("%s: layer spans miss the Invoke median by %.2f%%, tolerance %.0f%%", w.name, e, reconcileTol)
				}
				if v := res.Metrics["calls_per_s"].Value; v <= 0 {
					t.Errorf("%s: calls_per_s %v", w.name, v)
				}
			} else if v := res.Metrics["latency_p50_us"].Value; v <= 0 {
				t.Errorf("%s: latency_p50_us %v", w.name, v)
			}
		}
	}
}

// TestCorruptExpectedFails checks that verification catches a read
// reply that differs from what the client expects, on both stacks.
func TestCorruptExpectedFails(t *testing.T) {
	for _, name := range []string{"bulk-reader", "samedomain-shm"} {
		cfg := config{workload: workloadByName(name), seed: 5, seconds: 100 * time.Millisecond, repo: "..", corruptExpected: true}
		res, _, err := runUntraced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted expectation passed verification (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}
