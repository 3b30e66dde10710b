package lib

// The reachability rule's cases; TestReachableRules pins which it lists.

// ping and pong call only each other: a dead cycle, both listed.
func ping(n int) int {
	if n <= 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) }

// even and odd call each other too, but helper calls even: neither is
// listed.
func even(n int) bool { return n == 0 || odd(n-1) }

func odd(n int) bool { return n != 0 && even(n-1) }

// Store is an interface another package calls Get through, never Peek.
type Store interface {
	Get() int
	Peek() int
}

// Source is the Store another package wraps. Its Get is called through
// Store: not listed. Its Peek is listed.
type Source struct{}

func (Source) Get() int  { return 7 }
func (Source) Peek() int { return 8 }

// Wrap returns src behind a forwarding wrapper.
func Wrap(src Store) Store { return gate{src} }

// gate forwards each call to the Store it wraps. Its Peek is the only
// caller of Store.Peek, so the forwarding wrapper keeps neither itself
// nor Source.Peek alive: both listed. gate.Get is not.
type gate struct{ inner Store }

func (g gate) Get() int  { return g.inner.Get() }
func (g gate) Peek() int { return g.inner.Peek() }

// testedOnly is called only by its own package's tests: listed.
func testedOnly() int { return 9 }

// ForOtherTest is called only by another package's tests: not listed.
func ForOtherTest() int { return 10 }
