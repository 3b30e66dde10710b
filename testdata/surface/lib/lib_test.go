package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 || (Self{N: 1}).Double() != 2 {
		t.Fatal("wrong")
	}
}
