// Package main stands for a nested module that imports the program, such
// as a benchmark harness: loaded as a root, every function in it counts
// as a use and none is reported.
package main

import lib "repro/internal/fixture/lib"

func measure() int { return lib.BenchOnly() }
