package lib

import "fmt"

// Shape's Area is called through the interface; nothing calls Perimeter.
type Shape interface {
	Area() int
	Perimeter() int
}

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func (s Square) Perimeter() int { return 4 * s.Side } // want:unused "lib.Square.Perimeter is unused"

// Label is printed through fmt, which calls String unseen.
type Label struct{ Text string }

func (l Label) String() string { return "label " + l.Text }

// Check mirrors an analyzer declaration: a package-level initializer
// holds the only reference to runCheck.
type Check struct {
	Name string // want:unused "lib.Check.Name is unused: no live code reads it"
	Run  func() int
}

var Checker = &Check{Name: "check", Run: runCheck}

func runCheck() int { return helper() }

func helper() int { return 1 }

var registered int

func init() { registered = setup() }

func setup() int { return 2 }

// Total is what main calls.
func Total(s Shape) int { return s.Area() + Checker.Run() + registered + Data() }

// Describe formats a label.
func Describe(l Label) string { return fmt.Sprint(l) }

// BenchOnly is called only by the root package.
func BenchOnly() int { return 3 }

func Dead() int { return 4 } // want:unused "lib.Dead is unused"

func (s Square) Scale(k int) Square { return Square{s.Side * k} } // want:unused "lib.Square.Scale is unused"

func deadCaller() int { return deadCallee() } // want:unused "lib.deadCaller is unused"

func deadCallee() int { return 5 } // want:unused "lib.deadCallee is unused"
