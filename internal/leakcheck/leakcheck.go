// Package leakcheck fails a test binary that leaves goroutines running.
// A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"bytes"
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
// package. The os/signal goroutine is not counted (see live).
func Main(m *testing.M) {
	base, _ := live()
	code := m.Run()
	deadline := time.Now().Add(5 * time.Second)
	n, dump := live()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n, dump = live()
	}
	if n > base {
		fmt.Fprintf(os.Stderr, "%d goroutines leaked:\n%s\n", n-base, dump)
		code = 1
	}
	os.Exit(code)
}

// live returns how many goroutines are running, leaving out os/signal's
// loop (parked in os/signal.signal_recv), with every goroutine's stack.
// The first signal.Notify in a process starts that goroutine and it runs
// until the process exits; the fuzzing engine calls signal.Notify, so a
// -fuzz run always has it.
func live() (int, []byte) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return countLive(buf[:n]), buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// countLive counts the goroutines in a runtime.Stack(buf, true) dump,
// whose blank-line-separated blocks are one goroutine each, except
// os/signal's loop. It is matched by its os/signal.loop frame, which its
// stack shows from the moment it is created, before it first parks in
// os/signal.signal_recv.
func countLive(dump []byte) int {
	n := 0
	for _, g := range bytes.Split(bytes.TrimSpace(dump), []byte("\n\n")) {
		if bytes.HasPrefix(g, []byte("goroutine ")) && !bytes.Contains(g, []byte("\nos/signal.loop(")) {
			n++
		}
	}
	return n
}
