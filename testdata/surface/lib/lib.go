// Package lib holds one exported name per rule of the exported-surface
// audit (surface_test.go); TestUnusedExportsRules pins which it lists.
package lib

// Called is called by another package: not listed.
func Called() int { return helper() + Reached() }

// Reached is called only by its own package's non-test code: not listed.
func Reached() int { return 1 }

func helper() int { return 0 }

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
