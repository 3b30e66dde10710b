// Command app is the fixture's outside caller.
package main

import (
	"fmt"
	"sort"

	"example.com/surface/lib"
)

func main() {
	var f lib.Field
	var v lib.Via = lib.Impl{}
	sort.Sort(lib.Sorted{2, 1})
	fmt.Println(lib.Called(), f.N, v.Via(), lib.Outer{}.Promoted(), lib.Kind(0))
}
