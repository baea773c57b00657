// Command perfbench is the repository benchmark: one command that runs a
// named workload against the simulator, checks every operation's output,
// and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run wraps the program's public hooks from outside and
// reports per-layer metrics instead. See NOTES.md for why each workload
// and op size was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// DefaultSeed is the workload seed the goldens in goldens.json were
// recorded with. Other seeds run every invariant check but no golden.
const DefaultSeed = 1

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects what a workload measured. Ops counts timed operations;
// attempted and failed count every checked operation, timed or not.
type run struct {
	setup     []float64 // seconds per fresh set-up
	ops       []float64 // seconds per timed op
	work      float64   // work units completed in the timed region
	region    regionStats
	rss       float64 // peak RSS in MiB once rssOps ops have run
	rssOps    int     // timed ops after which peak RSS is read; 0 means defaultRSSOps
	attempted int
	failed    int
	problems  []string
}

// defaultRSSOps is the number of timed ops after which peak RSS is read.
// A fixed amount of work keeps the reading independent of how many ops
// fit in the run: the flagship's per-flow tables grow for tens of
// thousands of slots and osmosisd keeps every restored job's checkpoint,
// so a faster program would otherwise report more memory.
const defaultRSSOps = 32

// opDone records one timed op's duration and reads peak RSS after the
// rssOps-th.
func (r *run) opDone(seconds float64) {
	r.ops = append(r.ops, seconds)
	n := r.rssOps
	if n == 0 {
		n = defaultRSSOps
	}
	if len(r.ops) == n {
		r.rss = peakRSSMB()
	}
}

// fail records a failed check; the first few messages go to stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd turns a timed run into the end-to-end metric set.
func (r *run) endToEnd() map[string]metric {
	ops := float64(len(r.ops))
	if r.rss == 0 {
		r.rss = peakRSSMB()
	}
	return map[string]metric{
		"setup_s":      {median(r.setup), "s"},
		"op_p50_s":     {median(r.ops), "s"},
		"work_per_s":   {r.work / r.region.wall, "1/s"},
		"cpu_per_op_s": {r.region.cpu / ops, "s"},
		"peak_rss_mb":  {r.rss, "MB"},
	}
}

// workload is one named benchmark regime. timed runs the end-to-end
// measurement; traced runs the separate per-layer measurement and
// returns its layer metrics (the run's counts still come back in r).
type workload struct {
	name   string
	timed  func(seed uint64, seconds float64) (*run, error)
	traced func(seed uint64, seconds float64) (*run, map[string]metric, error)
}

var workloads = []workload{
	{"fabric_busy", busy.timed, busy.traced},
	{"paper_quick", quickTimed, quickTraced},
	{"daemon_sweep", daemonTimed, daemonTraced},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", DefaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	printGoldens := flag.Bool("print-goldens", false, "print goldens.json for the default seed and exit")
	flag.Parse()

	if *printGoldens {
		if err := writeGoldens(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	fmt.Printf("env: workload=%s seed=%d trace=%d nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		w.name, *seed, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())

	var (
		r      *run
		layers map[string]metric
		err    error
	)
	if *trace == 1 {
		r, layers, err = w.traced(*seed, *seconds)
	} else {
		r, err = w.timed(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if *trace == 1 {
		res.Metrics = completeLayers(layers)
	} else {
		res.Metrics = r.endToEnd()
		fmt.Printf("ops: %d timed (p10 %.4g p50 %.4g p90 %.4g max %.4g s), setup samples: %d\n",
			len(r.ops), quantile(r.ops, 0.1), median(r.ops), quantile(r.ops, 0.9), quantile(r.ops, 1), len(r.setup))
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		os.Exit(1)
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ---- measurement helpers ----

// cpuSeconds reports the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reports the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// region brackets a timed region: wall clock, process CPU and the Go
// heap counters, read only at the two ends.
type region struct {
	start  time.Time
	cpu    float64
	allocs uint64
	gcs    uint32
}

type regionStats struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	gcCycles   uint32
}

func beginRegion() region {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return region{start: time.Now(), cpu: cpuSeconds(), allocs: ms.TotalAlloc, gcs: ms.NumGC}
}

func (r region) end() regionStats {
	wall := time.Since(r.start).Seconds()
	cpu := cpuSeconds() - r.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return regionStats{wall: wall, cpu: cpu, allocBytes: ms.TotalAlloc - r.allocs, gcCycles: ms.NumGC - r.gcs}
}

// quantile is the linear-interpolated q-quantile of xs (unsorted input).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timedLoop runs op until the clock runs out, or exactly limit times when
// limit > 0, and returns the region's statistics. A time-bounded loop
// stops only after a whole number of groups of unit ops (at least one
// group). op receives the op number and times itself (recording via
// run.opDone), so per-op checks stay outside the timing.
func timedLoop(seconds float64, limit, unit int, op func(n int) error) (regionStats, error) {
	reg := beginRegion()
	deadline := reg.start.Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; ; n++ {
		if limit > 0 && n == limit || limit == 0 && n > 0 && n%unit == 0 && time.Now().After(deadline) {
			break
		}
		if err := op(n); err != nil {
			return regionStats{}, err
		}
	}
	return reg.end(), nil
}

// settle forces a collection so the next timed region starts on a clean
// heap.
func settle() { runtime.GC() }
