package main

import (
	"testing"

	"example.com/surface/lib"
)

func TestByOtherTest(t *testing.T) {
	if (lib.Field{}).ByOtherTest() != 6 || lib.ForOtherTest() != 10 {
		t.Fatal("wrong")
	}
}
