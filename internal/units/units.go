// Package units provides the physical quantities used throughout the
// OSMOSIS fabric models: simulation time at picosecond resolution,
// bandwidth, optical power in dB/dBm, and fiber time-of-flight.
//
// All simulation time is carried as Time (integer picoseconds) so that
// event ordering is exact and runs are bit-reproducible; floating point
// appears only at the edges (physical-layer models, report formatting).
package units

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp or duration in integer picoseconds.
//
// One picosecond resolution comfortably resolves the paper's quantities:
// a 256-byte cell at 40 Gb/s lasts 51.2 ns = 51_200 ps, and a single
// bit at 40 Gb/s lasts 25 ps.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Infinity is a sentinel meaning "never"; it sorts after every real
// timestamp a simulation can produce.
const Infinity Time = math.MaxInt64

// Nanoseconds reports t as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit for human-readable reports.
func (t Time) String() string {
	switch {
	case t == Infinity:
		return "inf"
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// FromNanoseconds converts a float64 nanosecond quantity to Time,
// rounding to the nearest picosecond.
func FromNanoseconds(ns float64) Time {
	return Time(math.Round(ns * float64(Nanosecond)))
}

// Bandwidth is a data rate in bits per second.
type Bandwidth float64

// Common data rates from the paper.
const (
	GigabitPerSecond Bandwidth = 1e9
	TerabitPerSecond Bandwidth = 1e12
	GBytePerSecond   Bandwidth = 8e9 // one GByte/s in bits/s
	OSMOSISPortRate  Bandwidth = 40 * GigabitPerSecond
	IB12xQDRPortRate Bandwidth = 12 * GBytePerSecond // 96 Gb/s raw target
)

// GbPerSecond reports the bandwidth in Gb/s.
func (b Bandwidth) GbPerSecond() float64 { return float64(b) / 1e9 }

// TbPerSecond reports the bandwidth in Tb/s.
func (b Bandwidth) TbPerSecond() float64 { return float64(b) / 1e12 }

// String formats the bandwidth with an adaptive unit.
func (b Bandwidth) String() string {
	switch {
	case b >= TerabitPerSecond:
		return fmt.Sprintf("%.4gTb/s", b.TbPerSecond())
	case b >= GigabitPerSecond:
		return fmt.Sprintf("%.4gGb/s", b.GbPerSecond())
	case b >= 1e6:
		return fmt.Sprintf("%.4gMb/s", float64(b)/1e6)
	default:
		return fmt.Sprintf("%.4gb/s", float64(b))
	}
}

// TransmissionTime reports how long n bytes occupy a link of bandwidth b.
func TransmissionTime(nBytes int, b Bandwidth) Time {
	if b <= 0 {
		return Infinity
	}
	bits := float64(nBytes) * 8
	return Time(math.Round(bits / float64(b) * float64(Second)))
}

// BitTime reports the duration of a single bit at bandwidth b.
func BitTime(b Bandwidth) Time {
	if b <= 0 {
		return Infinity
	}
	return Time(math.Round(float64(Second) / float64(b)))
}

// Fiber propagation. Light in silica travels at roughly c/1.468; the
// paper budgets 250 ns for a 50 m machine-room diameter, i.e. 5 ns/m.
const (
	// FiberDelayPerMeter is the time-of-flight per meter of fiber,
	// matching the paper's 250 ns / 50 m budget.
	FiberDelayPerMeter = 5 * Nanosecond
)

// FiberDelay reports the one-way time of flight over meters of fiber.
func FiberDelay(meters float64) Time {
	return Time(math.Round(meters * float64(FiberDelayPerMeter)))
}

// RoundTrip reports 2x the one-way fiber delay over meters of fiber.
func RoundTrip(meters float64) Time { return 2 * FiberDelay(meters) }

// Decibel math for the optical power budget.

// DB is a power ratio in decibels.
type DB float64

// DBm is an absolute optical power referenced to 1 mW.
type DBm float64

// RatioToDB converts a linear power ratio to dB.
func RatioToDB(ratio float64) DB {
	if ratio <= 0 {
		return DB(math.Inf(-1))
	}
	return DB(10 * math.Log10(ratio))
}

// Milliwatts converts an absolute dBm power to milliwatts.
func (p DBm) Milliwatts() float64 { return math.Pow(10, float64(p)/10) }

// MilliwattsToDBm converts a milliwatt power to dBm.
func MilliwattsToDBm(mw float64) DBm {
	if mw <= 0 {
		return DBm(math.Inf(-1))
	}
	return DBm(10 * math.Log10(mw))
}

// Add applies a gain (positive) or loss (negative) in dB to a dBm power.
func (p DBm) Add(g DB) DBm { return DBm(float64(p) + float64(g)) }

// Sub reports the ratio between two absolute powers, in dB.
func (p DBm) Sub(q DBm) DB { return DB(float64(p) - float64(q)) }

// SplitLoss reports the ideal power loss of a 1:n optical splitter.
func SplitLoss(n int) DB {
	if n <= 1 {
		return 0
	}
	return RatioToDB(1 / float64(n))
}
