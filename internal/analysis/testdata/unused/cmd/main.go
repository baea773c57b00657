package main

import (
	"fmt"

	lib "repro/internal/fixture/lib"
)

func main() {
	fmt.Println(run(), lib.Describe(lib.Label{Text: "x"}))
}

func run() int { return lib.Total(lib.Square{Side: 2}) }

func leftover() int { return 6 } // want:unused "main.leftover is unused"
