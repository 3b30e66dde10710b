package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 || (Self{N: 1}).Double() != 2 || testedOnly() != 9 || (Knobs{TestSet: 1}).TestSet != 1 {
		t.Fatal("wrong")
	}
}
