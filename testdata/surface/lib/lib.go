// Package lib holds one exported name per rule of the exported-surface
// audit (surface_test.go); TestUnusedExportsRules pins which it lists.
package lib

// Called is called by another package: not listed.
func Called() int { return helper() + Reached() }

// Reached is called only by its own package's non-test code: not listed.
func Reached() int { return 1 }

func helper() int {
	if even(4) {
		return 0
	}
	return 1
}

// TestOnly is called only by its own package's tests: listed.
func TestOnly() int { return 2 }

// Field is used through one of its fields by another package: not listed.
type Field struct{ N int }

// Self is used only by its own methods, which read its fields and call
// each other: listed.
type Self struct{ N int }

// Double calls its sibling method.
func (s Self) Double() int { return s.Get() * 2 }

// Get reads its own field.
func (s Self) Get() int { return s.N }

// Iface and Asserted are used only by a blank assertion: both listed.
type Iface interface{ M() }

// Asserted satisfies Iface.
type Asserted struct{}

// M implements Iface.
func (Asserted) M() {}

var _ Iface = Asserted{}

// Via is an interface another package calls through.
type Via interface{ Via() int }

// Impl is used as a Via by another package.
type Impl struct{}

// Via is called only through the Via interface: not listed.
func (Impl) Via() int { return 3 }

// NotVia is in no interface anything calls through: listed.
func (Impl) NotVia() int { return 4 }

// Inner is embedded in Outer.
type Inner struct{}

// Promoted is called only through Outer, which embeds Inner: not listed.
func (Inner) Promoted() int { return 5 }

// Outer is used by another package.
type Outer struct{ Inner }

// Kind is printed by another package.
type Kind int

// String is called by fmt: not listed.
func (Kind) String() string { return "kind" }

// Is is called by errors: not listed.
func (Kind) Is(error) bool { return false }

// Sorted is sorted by another package: sort calls its methods, none of
// which is listed.
type Sorted []int

func (s Sorted) Len() int           { return len(s) }
func (s Sorted) Less(i, j int) bool { return s[i] < s[j] }
func (s Sorted) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// ByOtherTest is called only by another package's tests: not listed.
func (Field) ByOtherTest() int { return 6 }
