// Package leakcheck fails a test binary that leaves goroutines running.
// A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests and exits. When they leave more
// goroutines running than existed before them — a server, worker or
// connection a test forgot to close — and the count does not settle
// within five seconds, it prints every goroutine's stack and fails the
// package.
func Main(m *testing.M) {
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
