package lib

import (
	"encoding/json"
	"fmt"
)

// Counters is written on every path and read only in part.
type Counters struct {
	Hits    int
	Misses  int // want:unused "lib.Counters.Misses is unused: no live code reads it"
	Evicted int // want:unused "lib.Counters.Evicted is unused: no live code reads it"
	Tagged  int `json:"tagged"`
	Base
}

// Base is embedded: its fields are promoted, the embedded field itself
// is never reported.
type Base struct{ ID int }

// Printed reaches fmt whole, which reads every field by reflection.
type Printed struct{ A, B int }

// Encoded reaches encoding/json whole.
type Encoded struct{ X int }

// Key is a map key: hashing reads every field.
type Key struct{ Row, Col int }

// Pair is compared with ==.
type Pair struct{ L, R int }

// Mode's members number themselves with iota: ModeA is unused, but
// deleting it would renumber ModeB, which Data reads.
type Mode int

const (
	ModeA Mode = iota
	ModeB
	ModeC // want:unused "lib.ModeC is unused: nothing references it"
)

const deadConst = 7 // want:unused "lib.deadConst is unused: nothing references it"

var deadVar = 8 // want:unused "lib.deadVar is unused: nothing references it"

var liveVar = 9

// Data exercises every rule from a live function.
func Data() int {
	c := Counters{Misses: 1}
	c.Hits++
	c.Evicted = 2
	c.Evicted++
	c.ID = 3
	p := Printed{1, 2}
	fmt.Sprint(p)
	b, _ := json.Marshal(&Encoded{X: 4})
	seen := map[Key]bool{{1, 2}: true}
	same := Pair{1, 2} == Pair{2, 1}
	if seen[Key{Row: 1}] || same {
		return c.Hits + c.ID + len(b) + int(ModeB) + liveVar
	}
	return c.Hits + len(b)
}
