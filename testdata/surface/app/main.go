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
	st := lib.Wrap(lib.Source{})
	k, p := lib.Configure()
	sort.Sort(lib.Sorted{2, 1})
	fmt.Println(lib.Called(), f.N, v.Via(), lib.Outer{Inner: lib.Inner{}}.Promoted(), lib.Kind(0),
		st.Get(), k.TestSet, p.A)
}
