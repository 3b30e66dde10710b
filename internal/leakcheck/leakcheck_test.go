package leakcheck

import (
	"bytes"
	"os"
	"os/signal"
	"syscall"
	"testing"
)

const dump = `goroutine 1 [running]:
main.main()
	/src/main.go:10 +0x1d

goroutine 7 [syscall]:
os/signal.signal_recv()
	/go/src/runtime/sigqueue.go:152 +0x29
os/signal.loop()
	/go/src/os/signal/signal_unix.go:23 +0x13
created by os/signal.Notify.func1.1 in goroutine 6
	/go/src/os/signal/signal.go:151 +0x1f

goroutine 9 [chan receive]:
example.com/srv.(*Server).serve(0xc000010000)
	/src/srv.go:40 +0x45
`

// TestCountLiveSkipsSignalLoop: os/signal's loop goroutine is not
// counted, parked in os/signal.signal_recv or not yet started; every
// other goroutine is.
func TestCountLiveSkipsSignalLoop(t *testing.T) {
	if got := countLive([]byte(dump)); got != 2 {
		t.Errorf("countLive = %d, want 2 (the signal loop left out)", got)
	}
	const starting = "goroutine 7 [runnable]:\nos/signal.loop()\n\t/go/src/os/signal/signal_unix.go:21\n" +
		"created by os/signal.Notify.func1.1 in goroutine 6\n\t/go/src/os/signal/signal.go:151 +0x1f\n"
	if got := countLive([]byte(starting)); got != 0 {
		t.Errorf("countLive counted a signal loop that has not run yet: %d", got)
	}
	if got := countLive(nil); got != 0 {
		t.Errorf("countLive(nil) = %d, want 0", got)
	}
}

// TestLiveIgnoresSignalNotify: the goroutine the first signal.Notify
// starts, as the fuzzing engine's does, is in live's dump but not in its
// count.
func TestLiveIgnoresSignalNotify(t *testing.T) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR1)
	defer signal.Stop(c)
	n, stacks := live()
	if !bytes.Contains(stacks, []byte("\nos/signal.loop(")) {
		t.Fatalf("no os/signal.loop goroutine after signal.Notify:\n%s", stacks)
	}
	if all := bytes.Count(stacks, []byte("goroutine ")) - bytes.Count(stacks, []byte("in goroutine ")); n != all-1 {
		t.Errorf("live counted %d of %d goroutines, want all but the signal loop:\n%s", n, all, stacks)
	}
}
