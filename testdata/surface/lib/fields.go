package lib

// Knobs holds one exported field per case of the field rule;
// TestExportedFieldsRules pins which it lists.
type Knobs struct {
	Keyed     int    // set by name in a keyed literal: not listed
	Assigned  int    // assigned: not listed
	Addressed int    // its address is taken: not listed
	Bumped    int    // incremented: not listed
	Element   [2]int // one of its elements is assigned: not listed
	TestSet   int    // read by another package, set only by its own package's tests: listed
	Decoded   int    `json:"decoded"` // tagged, so a codec sets it: not listed
}

// Pair is filled positionally, which sets both its fields: not listed.
type Pair struct{ A, B int }

// Configure sets each field of Knobs but TestSet.
func Configure() (Knobs, Pair) {
	k := Knobs{Keyed: 1}
	k.Assigned = 2
	p := &k.Addressed
	*p = 3
	k.Bumped++
	k.Element[1] = 4
	return k, Pair{5, 6}
}
