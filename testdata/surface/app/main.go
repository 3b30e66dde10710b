// Command app is the fixture's outside caller.
package main

import "example.com/surface/lib"

func main() {
	var f lib.Field
	println(lib.Called(), f.N)
}
