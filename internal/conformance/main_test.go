package conformance

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind:
// every cell's servers, serve loops, ring doorbells, session layers
// and clients must all be gone once every test has cleaned up. The
// goroutines still running are dumped on failure. A fuzzing run is
// not checked: the fuzz engine starts a signal-handling goroutine
// that never exits.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			fmt.Fprintf(os.Stderr, "goroutines leaked: baseline=%d now=%d\n", baseline, n)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}
