package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// The daemon_sweep workload drives osmosisd in-process over loopback
// HTTP: one closed-loop client submits a job, follows its NDJSON stream
// to a terminal state and fetches the result before submitting the next.
// One op in seven instead runs a longer job that it checkpoints halfway
// and restores as a second job.
const (
	daemonHosts       = 128
	daemonRadix       = 16
	daemonWarmup      = 250
	daemonMeasure     = 1000
	daemonCkptMeasure = 4000
	daemonCkptEvery   = 7
	daemonSetupReps   = 31
)

var (
	daemonSchedulers = []string{"flppr", "islip", "pipelined-islip", "pim", "lqf"}
	daemonLoads      = []float64{0.3, 0.6, 0.9}
	daemonKinds      = []string{"uniform", "bursty"}
)

// sweepPoint is one (scheduler, load, traffic) combination.
type sweepPoint struct {
	sched string
	load  float64
	kind  string
	index int
}

func (p sweepPoint) label(ckpt bool) string {
	l := fmt.Sprintf("%s/%s/%g", p.sched, p.kind, p.load)
	if ckpt {
		l += "/ckpt"
	}
	return l
}

func sweepPoints() []sweepPoint {
	var pts []sweepPoint
	for _, s := range daemonSchedulers {
		for _, k := range daemonKinds {
			for _, l := range daemonLoads {
				pts = append(pts, sweepPoint{s, l, k, len(pts)})
			}
		}
	}
	return pts
}

// ckptPoints are the points checkpoint ops cycle through: every
// scheduler at uniform load 0.6. A fixed set keeps the checkpoint ops'
// cost (snapshot size grows with backlog, so with load) the same for
// every seed.
func ckptPoints() []sweepPoint {
	var pts []sweepPoint
	for _, p := range sweepPoints() {
		if p.kind == "uniform" && p.load == 0.3 {
			pts = append(pts, p)
		}
	}
	return pts
}

// sweep maps op numbers to job specs. A cycle visits every sweep point
// once, in an order derived from the workload seed, with a checkpoint op
// on each of ckptPoints after every daemonCkptEvery-1 plain ops: 30 plain
// and 5 checkpoint ops, the same mix for every seed. Every point's
// traffic seed also derives from the workload seed.
type sweep struct {
	seed  uint64
	order []sweepPoint
	ckpt  []sweepPoint
}

func newSweep(seed uint64) *sweep {
	pts := sweepPoints()
	rng := sim.NewRNG(sim.DeriveSeed(seed, 0xd5))
	for i := len(pts) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pts[i], pts[j] = pts[j], pts[i]
	}
	return &sweep{seed: seed, order: pts, ckpt: ckptPoints()}
}

// cycle is the number of ops in one pass over the sweep.
func (s *sweep) cycle() int { return len(s.order) + len(s.ckpt) }

// job returns op k's point, whether it is a checkpoint op, and its spec.
func (s *sweep) job(k int) (sweepPoint, bool, []byte) {
	i := k % s.cycle()
	if i%daemonCkptEvery == daemonCkptEvery-1 {
		p := s.ckpt[i/daemonCkptEvery]
		return p, true, s.spec(p, true)
	}
	p := s.order[i-i/daemonCkptEvery]
	return p, false, s.spec(p, false)
}

func (s *sweep) spec(p sweepPoint, ckpt bool) []byte {
	return jobSpec(p, ckpt, sim.DeriveSeed(s.seed, uint64(p.index)+1))
}

func jobSpec(p sweepPoint, ckpt bool, trafficSeed uint64) []byte {
	measure := daemonMeasure
	if ckpt {
		measure = daemonCkptMeasure
	}
	spec, err := json.Marshal(map[string]any{
		"name":          p.label(ckpt),
		"fabric":        map[string]any{"hosts": daemonHosts, "radix": daemonRadix, "scheduler": p.sched},
		"traffic":       map[string]any{"kind": p.kind, "load": p.load, "seed": trafficSeed},
		"warmup_slots":  daemonWarmup,
		"measure_slots": measure,
	})
	if err != nil {
		panic(err) // a map of plain values always marshals
	}
	return spec
}

// daemon is one in-process osmosisd behind a loopback HTTP server.
type daemon struct {
	srv  *service.Server
	http *httptest.Server
	c    *http.Client
}

func startDaemon() (*daemon, error) {
	srv := service.NewServer(service.Options{})
	ts := httptest.NewServer(srv.Handler())
	d := &daemon{srv: srv, http: ts, c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	resp, err := d.c.Get(ts.URL + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("healthz: %s", resp.Status)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) stop() {
	d.http.Close()
	d.srv.Close()
	d.c.CloseIdleConnections()
}

// daemonSetUp starts and stops the daemon several times, timing server
// start until /healthz answers, and keeps the last one running.
func daemonSetUp(r *run) (*daemon, error) {
	var d *daemon
	for i := 0; i < daemonSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	return d, nil
}

// status is the subset of the job status document the clients read.
type status struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Error   string `json:"error"`
	Slot    uint64 `json:"slot"`
	EndSlot uint64 `json:"end_slot"`
}

// call performs one request and returns the body, failing on non-2xx.
func (d *daemon) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (d *daemon) submitted(method, path string, body []byte) (string, error) {
	data, err := d.call(method, path, body)
	if err != nil {
		return "", err
	}
	var st status
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// follow reads a job's NDJSON stream until its terminal line, calling
// each for every status line, and returns the final state.
func (d *daemon) follow(id string, each func(status) error) (status, error) {
	resp, err := d.c.Get(d.http.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return status{}, err
	}
	defer resp.Body.Close()
	var last status
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return last, err
		}
		if each != nil {
			if err := each(last); err != nil {
				return last, err
			}
		}
		switch last.State {
		case "done", "failed", "canceled", "suspended":
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, fmt.Errorf("stream for %s ended in state %q", id, last.State)
}

// jobResult fetches a finished job's result fingerprint.
func (d *daemon) jobResult(id string) (string, error) {
	data, err := d.call("GET", "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return "", err
	}
	var res struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return "", err
	}
	return res.Fingerprint, nil
}

// opTrace records one op's round trips (traced runs only).
type opTrace struct {
	id             string
	latency        float64
	submit, result float64
	ckpt           bool
	save, restore  float64
	ckptBytes      int
}

// runJob performs op k end to end and checks its output: the job is
// done, its fingerprint matches the sweep point's golden (default seed),
// and a checkpoint op's restored twin finishes on the same fingerprint.
func (d *daemon) runJob(sw *sweep, k int, tr *opTrace) error {
	p, ckpt, spec := sw.job(k)
	start := time.Now()
	id, err := d.submitted("POST", "/v1/jobs", spec)
	if err != nil {
		return err
	}
	tr.id, tr.ckpt = id, ckpt
	tr.submit = time.Since(start).Seconds()
	var twin string
	final, err := d.follow(id, func(st status) error {
		if !ckpt || twin != "" || st.State != "running" || 2*st.Slot < st.EndSlot {
			return nil
		}
		t := time.Now()
		snap, err := d.call("POST", "/v1/jobs/"+id+"/checkpoint", nil)
		if err != nil {
			return err
		}
		tr.save, tr.ckptBytes = time.Since(t).Seconds(), len(snap)
		t = time.Now()
		twin, err = d.submitted("POST", "/v1/restore", snap)
		tr.restore = time.Since(t).Seconds()
		return err
	})
	if err != nil {
		return err
	}
	if final.State != "done" {
		return fmt.Errorf("job %s (%s) ended %s: %s", id, p.label(ckpt), final.State, final.Error)
	}
	t := time.Now()
	got, err := d.jobResult(id)
	if err != nil {
		return err
	}
	tr.result = time.Since(t).Seconds()
	if ckpt {
		if twin == "" {
			return fmt.Errorf("job %s finished before its checkpoint was taken", id)
		}
		if final, err = d.follow(twin, nil); err != nil {
			return err
		}
		if final.State != "done" {
			return fmt.Errorf("restored job %s ended %s: %s", twin, final.State, final.Error)
		}
		restored, err := d.jobResult(twin)
		if err != nil {
			return err
		}
		if restored != got {
			return fmt.Errorf("restored job %s fingerprint differs from its original %s", twin, id)
		}
	}
	tr.latency = time.Since(start).Seconds()
	if sw.seed == DefaultSeed {
		if want, h := goldens.Daemon[p.label(ckpt)], fingerprintHash(got); h != want {
			return fmt.Errorf("%s fingerprint %s, golden %s", p.label(ckpt), h, want)
		}
	}
	return nil
}

// jobLoop runs the closed loop from op first on: whole sweep cycles until
// the clock runs out, or exactly limit ops when limit > 0. Whole cycles
// make every run time the same mix of jobs, whatever its length.
func (d *daemon) jobLoop(sw *sweep, first int, seconds float64, limit int, r *run) (regionStats, []opTrace) {
	var traces []opTrace
	reg, _ := timedLoop(seconds, limit, sw.cycle(), func(n int) error {
		var tr opTrace
		r.attempted++
		if err := d.runJob(sw, first+n, &tr); err != nil {
			r.fail("op %d: %v", first+n, err)
			return nil
		}
		r.opDone(tr.latency)
		traces = append(traces, tr)
		return nil
	})
	return reg, traces
}

// daemonStart sets the daemon up and warms it up on the first group of
// ops (plain jobs and one checkpoint op), which are checked but not
// timed. Peak RSS is read after the first timed cycle.
func daemonStart(seed uint64, r *run) (*daemon, *sweep, error) {
	d, err := daemonSetUp(r)
	if err != nil {
		return nil, nil, err
	}
	sw := newSweep(seed)
	r.rssOps = sw.cycle()
	d.jobLoop(sw, 0, 0, daemonCkptEvery, r)
	r.ops = r.ops[:0]
	settle()
	return d, sw, nil
}

func daemonTimed(seed uint64, seconds float64) (*run, error) {
	r := &run{}
	d, sw, err := daemonStart(seed, r)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r.region, _ = d.jobLoop(sw, 0, seconds, 0, r)
	r.work = float64(len(r.ops))
	return r, nil
}

// daemonTraced runs the closed loop untraced for half the time, then the
// same ops again recording every round trip, then reads each job's
// engine rate from /metrics.
func daemonTraced(seed uint64, seconds float64) (*run, map[string]metric, error) {
	r := &run{}
	d, sw, err := daemonStart(seed, r)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	attempted := r.attempted
	plain, _ := d.jobLoop(sw, 0, seconds/2, 0, r)
	nOps := r.attempted - attempted
	plainOps := len(r.ops)
	r.ops = r.ops[:0]
	settle()
	traced, traces := d.jobLoop(sw, 0, 0, nOps, r)

	engineRate, err := d.jobRates()
	if err != nil {
		return nil, nil, err
	}
	var submit, result, overhead, save, restore, size []float64
	for _, t := range traces {
		submit = append(submit, t.submit)
		result = append(result, t.result)
		if t.ckpt {
			save = append(save, t.save)
			restore = append(restore, t.restore)
			size = append(size, float64(t.ckptBytes))
		} else if rate, ok := engineRate[t.id]; ok && rate > 0 {
			overhead = append(overhead, t.latency-(daemonWarmup+daemonMeasure)/rate)
		}
	}
	plainRate := float64(plainOps) / plain.wall
	tracedRate := float64(len(traces)) / traced.wall
	layers := map[string]metric{
		"service.submit_s":           {median(submit), "s"},
		"service.result_s":           {median(result), "s"},
		"service.overhead_s":         {median(overhead), "s"},
		"ckpt.save_s":                {median(save), "s"},
		"ckpt.bytes":                 {median(size), "bytes"},
		"ckpt.restore_s":             {median(restore), "s"},
		"parallel.core_util":         {plain.cpu / (plain.wall * float64(runtime.GOMAXPROCS(0))), "share"},
		"runtime.alloc_bytes_per_op": {float64(plain.allocBytes) / float64(nOps), "bytes"},
		"runtime.gc_cycles":          {float64(plain.gcCycles), "count"},
		"trace.overhead_share":       {1 - tracedRate/plainRate, "share"},
	}
	fmt.Printf("trace: %d ops per phase (%d checkpoint ops traced), untraced %.2f jobs/s, traced %.2f jobs/s\n",
		nOps, len(save), plainRate, tracedRate)
	return r, layers, nil
}

var rateLine = regexp.MustCompile(`^osmosisd_job_slots_per_second\{job="([^"]+)"\} (\S+)$`)

// jobRates scrapes /metrics for each job's engine slots per second. The
// daemon computes it as the job's timeline slots over its run seconds,
// so timeline slots divided by it gives back the engine time.
func (d *daemon) jobRates() (map[string]float64, error) {
	data, err := d.call("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	rates := map[string]float64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if m := rateLine.FindSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(string(m[2]), 64)
			if err != nil {
				return nil, err
			}
			rates[string(m[1])] = v
		}
	}
	return rates, nil
}
