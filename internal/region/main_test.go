package region

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines running: a
// server, worker or connection a test forgot to close is printed with
// every goroutine's stack.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "%d goroutines leaked:\n%s\n", n-base, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
