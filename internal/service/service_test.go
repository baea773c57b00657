package service

// Daemon-level determinism tests. The contract under test is the
// daemon's determinism contract: a job's result is a function of its
// spec alone — two concurrent jobs with equal specs produce
// byte-identical result documents, a job checkpointed over HTTP,
// killed, and restored on a fresh daemon finishes byte-identical to an
// uninterrupted twin, and all of it holds under the race detector while
// metrics scrapes hammer the live run.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fabric"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// smallSpec is a fast job (finishes in well under a second) used where
// the test only needs completed results.
func smallSpec(name string, seed uint64) JobSpec {
	return JobSpec{
		Name:         name,
		Fabric:       FabricSpec{Hosts: 16, Radix: 4},
		Traffic:      TrafficSpec{Kind: "uniform", Load: 0.7, Seed: seed},
		WarmupSlots:  100,
		MeasureSlots: 2000,
	}
}

// longSpec is a job sized so that (with the test server's StepDelay) it
// stays mid-run long enough to be checkpointed or suspended.
func longSpec(name string, seed uint64) JobSpec {
	s := smallSpec(name, seed)
	s.MeasureSlots = 20000
	return s
}

// endlessSpec is a job that never finishes within a test: it holds a
// pool worker until it is canceled or suspended. Its timeline is the
// longest a job may declare.
func endlessSpec(name string, seed uint64) JobSpec {
	s := smallSpec(name, seed)
	s.MeasureSlots = packet.MaxTimelineSlots - s.WarmupSlots
	return s
}

// blockerOptions is a one-worker pool whose engines pause between
// small chunks, so an endlessSpec job holds the only worker while
// staying responsive to cancel and suspend.
var blockerOptions = Options{Workers: 1, ChunkSlots: 128, StepDelay: time.Millisecond}

// testServer starts a daemon plus its HTTP frontend.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submit posts a spec and returns the assigned job ID.
func submit(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, data := postJSON(t, base+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// status fetches a job's wire status.
func status(t *testing.T, base, id string) Status {
	t.Helper()
	code, data := getBody(t, base+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("status %s: HTTP %d: %s", id, code, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (fatal on a terminal state
// that is not want).
func waitState(t *testing.T, base, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := status(t, base, id)
		if st.State == want {
			return st
		}
		switch st.State {
		case stateFailed, stateCanceled, stateDone:
			t.Fatalf("job %s reached %q (error %q) while waiting for %q", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return Status{}
}

// resultDoc fetches the raw result JSON of a done job.
func resultDoc(t *testing.T, base, id string) []byte {
	t.Helper()
	waitState(t, base, id, stateDone)
	code, data := getBody(t, base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result %s: HTTP %d: %s", id, code, data)
	}
	return data
}

// directFingerprint runs the spec's engine in-process — no daemon — and
// returns the final metrics fingerprint. This anchors the daemon's
// results to the fabric library: queueing, chunking, and HTTP plumbing
// must not perturb the engine.
func directFingerprint(t *testing.T, spec JobSpec) string {
	t.Helper()
	f, gens, err := spec.buildEngine()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := fabric.StartSession(f, gens, spec.WarmupSlots, spec.MeasureSlots)
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		if _, err := sess.Advance(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	drained, err := f.Drain(spec.drainBound())
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("direct run failed to drain")
	}
	return sess.Metrics().Fingerprint()
}

// fingerprintOf extracts the fingerprint field from a result document.
func fingerprintOf(t *testing.T, doc []byte) string {
	t.Helper()
	var r Result
	if err := json.Unmarshal(doc, &r); err != nil {
		t.Fatal(err)
	}
	return r.Fingerprint
}

// TestConcurrentBatchedJobsDeterministic is the service acceptance run:
// four jobs submitted together run at once on a four-worker pool, two
// of them with identical specs. The twins must produce byte-identical
// result documents, every job must match its in-process engine run, and
// a repeat submission on the same live daemon must reproduce the first
// round exactly.
func TestConcurrentBatchedJobsDeterministic(t *testing.T) {
	_, hs := testServer(t, Options{Workers: 4})
	specs := []JobSpec{
		smallSpec("twin-a", 7),
		smallSpec("twin-b", 7), // identical engine work to twin-a
		smallSpec("other-seed", 8),
		smallSpec("other-load", 9),
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = submit(t, hs.URL, sp)
	}
	docs := make([][]byte, len(specs))
	for i, id := range ids {
		docs[i] = resultDoc(t, hs.URL, id)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("equal-spec twins produced different result documents:\n  a: %s\n  b: %s", docs[0], docs[1])
	}
	if bytes.Equal(docs[0], docs[2]) {
		t.Error("different seeds produced identical results (suspicious)")
	}
	for i, sp := range specs {
		if got, want := fingerprintOf(t, docs[i]), directFingerprint(t, sp); got != want {
			t.Errorf("job %s (%s) diverged from its in-process engine run:\n  direct: %s\n  daemon: %s",
				ids[i], sp.Name, want, got)
		}
	}
	// A second round on the same (now warm) daemon replays byte-for-byte.
	for i, sp := range specs {
		id := submit(t, hs.URL, sp)
		if doc := resultDoc(t, hs.URL, id); !bytes.Equal(doc, docs[i]) {
			t.Errorf("resubmitted %s diverged from first run:\n  first: %s\n  again: %s", sp.Name, docs[i], doc)
		}
	}
}

// TestCheckpointKillRestoreByteIdentical checkpoints a live job over
// HTTP mid-run, cancels it (the kill), and restores the snapshot on a
// completely fresh daemon. The restored job's result document must be
// byte-identical to an uninterrupted twin's.
func TestCheckpointKillRestoreByteIdentical(t *testing.T) {
	spec := longSpec("ckpt-victim", 11)

	// Daemon A runs the job slowly so the checkpoint lands mid-timeline.
	_, hsA := testServer(t, Options{ChunkSlots: 256, StepDelay: 2 * time.Millisecond})
	id := submit(t, hsA.URL, spec)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := status(t, hsA.URL, id)
		if st.State == stateRunning && st.Slot > 0 && st.Slot < st.EndSlot/2 {
			break
		}
		if st.State != stateQueued && st.State != stateRunning {
			t.Fatalf("job reached %q before checkpoint", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached a checkpointable point (state %q slot %d)", st.State, st.Slot)
		}
		time.Sleep(time.Millisecond)
	}
	code, snap := postJSON(t, hsA.URL+"/v1/jobs/"+id+"/checkpoint", nil)
	if code != http.StatusOK {
		t.Fatalf("checkpoint: HTTP %d: %s", code, snap)
	}
	if !strings.HasPrefix(string(snap), "osmosis-ckpt v2\n") {
		t.Fatalf("checkpoint does not open with the v2 header: %.40q", snap)
	}
	if code, data := postJSON(t, hsA.URL+"/v1/jobs/"+id+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, data)
	}

	// Daemon B — fresh process state — continues from the snapshot at
	// full speed, next to an uninterrupted twin of the same spec.
	_, hsB := testServer(t, Options{})
	code, data := postJSON(t, hsB.URL+"/v1/restore", snap)
	if code != http.StatusAccepted {
		t.Fatalf("restore: HTTP %d: %s", code, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored := resultDoc(t, hsB.URL, st.ID)
	twin := resultDoc(t, hsB.URL, submit(t, hsB.URL, spec))
	if !bytes.Equal(restored, twin) {
		t.Errorf("restored run diverged from uninterrupted twin:\n  twin:     %s\n  restored: %s", twin, restored)
	}
	if got, want := fingerprintOf(t, restored), directFingerprint(t, spec); got != want {
		t.Errorf("restored run diverged from in-process engine run:\n  direct:   %s\n  restored: %s", want, got)
	}
}

// TestSuspendRestoreDir is the daemon-restart path: Suspend writes every
// live job into a directory and shuts down; a fresh daemon's RestoreDir
// picks them up and finishes them byte-identical to uninterrupted twins.
func TestSuspendRestoreDir(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{longSpec("restart-a", 21), longSpec("restart-b", 22)}

	sA := NewServer(Options{ChunkSlots: 256, StepDelay: 2 * time.Millisecond, Workers: 2})
	hsA := httptest.NewServer(sA.Handler())
	idByName := make(map[string]string)
	for _, sp := range specs {
		idByName[sp.Name] = submit(t, hsA.URL, sp)
	}
	// Let the engines start (suspending queued jobs is also legal, but
	// exercising the mid-run rendezvous is the point here).
	deadline := time.Now().Add(30 * time.Second)
	for running := 0; running < len(specs); {
		running = 0
		for _, id := range idByName {
			if st := status(t, hsA.URL, id); st.State == stateRunning && st.Slot > 0 {
				running++
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never started running")
		}
		time.Sleep(time.Millisecond)
	}
	hsA.Close()
	saved, err := sA.Suspend(dir)
	if err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if saved != len(specs) {
		t.Fatalf("suspend persisted %d jobs, want %d", saved, len(specs))
	}

	// Restore the same way cmd/osmosisd does at start-up.
	sB, hsB := testServer(t, Options{})
	n, err := sB.RestoreDir(dir)
	if err != nil {
		t.Fatalf("restore dir: %v", err)
	}
	if n != len(specs) {
		t.Fatalf("restored %d jobs, want %d", n, len(specs))
	}
	// Map restored jobs back to their specs by name.
	code, data := getBody(t, hsB.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d: %s", code, data)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != len(specs) {
		t.Fatalf("daemon B lists %d jobs, want %d", len(list.Jobs), len(specs))
	}
	for _, sp := range specs {
		var id string
		for _, st := range list.Jobs {
			if st.Name == sp.Name {
				id = st.ID
			}
		}
		if id == "" {
			t.Fatalf("restored daemon has no job named %q", sp.Name)
		}
		doc := resultDoc(t, hsB.URL, id)
		if got, want := fingerprintOf(t, doc), directFingerprint(t, sp); got != want {
			t.Errorf("%s: suspended+restored run diverged from engine run:\n  direct:   %s\n  restored: %s",
				sp.Name, want, got)
		}
	}
}

// TestMetricsScrapeDuringLiveRun hammers /metrics while an engine is
// mid-run — with -race this is the scrape-vs-Add regression test for
// the whole daemon path (the stats.LatencySample fix made it legal).
func TestMetricsScrapeDuringLiveRun(t *testing.T) {
	_, hs := testServer(t, Options{ChunkSlots: 128, StepDelay: time.Millisecond})
	id := submit(t, hs.URL, longSpec("scraped", 31))
	waitState(t, hs.URL, id, stateRunning)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, page := getBody(t, hs.URL+"/metrics")
				if code != http.StatusOK {
					t.Errorf("metrics: HTTP %d", code)
					return
				}
				if !strings.Contains(string(page), "osmosisd_queue_depth") {
					t.Error("metrics page missing osmosisd_queue_depth")
					return
				}
			}
		}()
	}
	resultDoc(t, hs.URL, id)
	close(stop)
	wg.Wait()
	_, page := getBody(t, hs.URL+"/metrics")
	for _, want := range []string{
		`osmosisd_jobs{state="done"} 1`,
		fmt.Sprintf("osmosisd_job_latency_slots{job=%q,quantile=\"0.99\"} ", id),
		fmt.Sprintf("osmosisd_job_progress_slots{job=%q} ", id),
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("final metrics page missing %q:\n%s", want, page)
		}
	}
}

// TestStreamFollowsJobToCompletion reads the NDJSON progress stream and
// requires it to terminate with the job's terminal status line.
func TestStreamFollowsJobToCompletion(t *testing.T) {
	_, hs := testServer(t, Options{ChunkSlots: 256, StepDelay: time.Millisecond})
	id := submit(t, hs.URL, smallSpec("streamed", 41))
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last Status
	lines := 0
	for {
		var st Status
		if err := dec.Decode(&st); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		last = st
		lines++
	}
	if lines == 0 {
		t.Fatal("stream produced no status lines")
	}
	if last.State != stateDone {
		t.Errorf("stream ended on state %q, want %q", last.State, stateDone)
	}
	// The final line's slot includes the post-timeline drain, so it is at
	// or past the timeline end.
	if last.Slot < last.EndSlot {
		t.Errorf("final stream line at slot %d, before end slot %d", last.Slot, last.EndSlot)
	}
}

// TestRejectsBadSubmissionsAndCorruptRestores pins the HTTP boundary:
// malformed specs and damaged checkpoints fail loudly with 4xx, never
// reach an engine, and name the problem.
func TestRejectsBadSubmissionsAndCorruptRestores(t *testing.T) {
	_, hs := testServer(t, Options{})
	badSpecs := []struct {
		name string
		body string
	}{
		{"unknown field", `{"fabric":{"hosts":16,"radix":4},"traffic":{"kind":"uniform","load":0.5},"measure_slots":100,"typo_field":1}`},
		{"zero measure", `{"fabric":{"hosts":16,"radix":4},"traffic":{"kind":"uniform","load":0.5},"measure_slots":0}`},
		{"no hosts", `{"fabric":{"radix":4},"traffic":{"kind":"uniform","load":0.5},"measure_slots":100}`},
		{"unknown scheduler", `{"fabric":{"hosts":16,"radix":4,"scheduler":"fifo"},"traffic":{"kind":"uniform","load":0.5},"measure_slots":100}`},
		{"unknown traffic kind", `{"fabric":{"hosts":16,"radix":4},"traffic":{"kind":"chaos","load":0.5},"measure_slots":100}`},
		{"trace without upload", `{"fabric":{"hosts":16,"radix":4},"traffic":{"kind":"trace"},"measure_slots":100}`},
		{"trace on wrong kind", `{"fabric":{"hosts":16,"radix":4},"traffic":{"kind":"uniform","load":0.5,"trace":"osmosis-trace v1"},"measure_slots":100}`},
	}
	for _, tc := range badSpecs {
		code, data := postJSON(t, hs.URL+"/v1/jobs", []byte(tc.body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (want 400): %s", tc.name, code, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error message in %s", tc.name, data)
		}
	}

	// A genuine snapshot, then damaged variants of it.
	id := submit(t, hs.URL, smallSpec("donor", 51))
	waitState(t, hs.URL, id, stateDone)
	// Done jobs refuse to checkpoint (409) — take one from a job queued
	// behind an endless one on a one-worker daemon instead.
	if code, data := postJSON(t, hs.URL+"/v1/jobs/"+id+"/checkpoint", nil); code != http.StatusConflict {
		t.Errorf("checkpoint of done job: HTTP %d (want 409): %s", code, data)
	}
	_, hsSlow := testServer(t, blockerOptions)
	waitState(t, hsSlow.URL, submit(t, hsSlow.URL, endlessSpec("blocker", 50)), stateRunning)
	qid := submit(t, hsSlow.URL, smallSpec("queued-donor", 52))
	code, snap := postJSON(t, hsSlow.URL+"/v1/jobs/"+qid+"/checkpoint", nil)
	if code != http.StatusOK {
		t.Fatalf("queued checkpoint: HTTP %d: %s", code, snap)
	}
	if code, _ := postJSON(t, hs.URL+"/v1/restore", snap); code != http.StatusAccepted {
		t.Errorf("clean queued snapshot refused: HTTP %d", code)
	}
	mid := len(snap) / 2
	corrupt := append([]byte(nil), snap...)
	corrupt[mid] ^= 1
	if code, _ := postJSON(t, hs.URL+"/v1/restore", corrupt); code != http.StatusBadRequest {
		t.Errorf("corrupt snapshot accepted: HTTP %d", code)
	}
	if code, _ := postJSON(t, hs.URL+"/v1/restore", snap[:mid]); code != http.StatusBadRequest {
		t.Errorf("truncated snapshot accepted: HTTP %d", code)
	}
	if code, _ := postJSON(t, hs.URL+"/v1/restore", []byte("osmosis-ckpt v3\n")); code != http.StatusBadRequest {
		t.Errorf("future-version snapshot accepted: HTTP %d", code)
	}
	v1 := strings.Replace(string(snap), "osmosis-ckpt v2\n", "osmosis-ckpt v1\n", 1)
	if code, data := postJSON(t, hs.URL+"/v1/restore", []byte(v1)); code != http.StatusBadRequest || !strings.Contains(string(data), "unsupported version") {
		t.Errorf("v1 snapshot: HTTP %d (want 400, unsupported version): %s", code, data)
	}
}

// TestCorruptRestoreBuildsNoEngine: a running-phase checkpoint with one
// flipped byte in its session payload gets a 400 before any engine is
// built: the checksum is checked first, over the upload in memory.
func TestCorruptRestoreBuildsNoEngine(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", goldenJobFile))
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64 // counted on the HTTP handler's goroutine
	real := schedulerFactory
	schedulerFactory = func(name string, radix int, seed uint64) (func() sched.Scheduler, error) {
		builds.Add(1)
		return real(name, radix, seed)
	}
	t.Cleanup(func() { schedulerFactory = real })

	// A digit three quarters in, deep in the session sections: flipping
	// its low bit leaves a well-formed record behind a stale checksum.
	i := 3 * len(golden) / 4
	for golden[i] < '0' || golden[i] > '8' {
		i++
	}
	corrupt := append([]byte(nil), golden...)
	corrupt[i] ^= 1
	_, hs := testServer(t, Options{})
	if code, data := postJSON(t, hs.URL+"/v1/restore", corrupt); code != http.StatusBadRequest || !strings.Contains(string(data), "checksum mismatch") {
		t.Fatalf("flipped byte: HTTP %d (want 400, checksum mismatch): %s", code, data)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("a corrupt upload built %d engine(s) before its checksum was read", n)
	}
	if _, err := parseJobCheckpoint(golden); err != nil || builds.Load() != 1 {
		t.Fatalf("control: intact checkpoint parsed with error %v after %d build(s), want one", err, builds.Load())
	}
}

// TestOverflowingLinkDelayRejected: a link delay whose slot rings
// overflow int used to pass validation and then panic the worker
// building the fabric, taking the whole daemon down. It must be refused
// at submission, and the daemon must keep serving.
func TestOverflowingLinkDelayRejected(t *testing.T) {
	_, hs := testServer(t, Options{})
	body := `{"fabric":{"hosts":16,"radix":4,"link_delay_slots":4611686018427387904},"traffic":{"kind":"uniform","load":0.5},"measure_slots":100}`
	if code, data := postJSON(t, hs.URL+"/v1/jobs", []byte(body)); code != http.StatusBadRequest {
		t.Fatalf("overflowing link delay: HTTP %d (want 400): %s", code, data)
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after rejected job: HTTP %d: %s", code, data)
	}
	id := submit(t, hs.URL, smallSpec("after", 53))
	waitState(t, hs.URL, id, stateDone)
}

// TestSchedParamRejected: a huge sched_param used to pass validation
// and then panic the worker sizing the scheduler's tables, taking the
// whole daemon down. The field is gone, so the spec is refused at
// submission as an unknown field, and the daemon keeps serving.
func TestSchedParamRejected(t *testing.T) {
	_, hs := testServer(t, Options{})
	for _, sched := range []string{"flppr", "pipelined-islip"} {
		body := `{"fabric":{"hosts":16,"radix":4,"scheduler":"` + sched + `","sched_param":1152921504606846976},"traffic":{"kind":"uniform","load":0.5},"measure_slots":100}`
		if code, data := postJSON(t, hs.URL+"/v1/jobs", []byte(body)); code != http.StatusBadRequest {
			t.Fatalf("%s sched_param: HTTP %d (want 400): %s", sched, code, data)
		}
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after rejected job: HTTP %d: %s", code, data)
	}
	id := submit(t, hs.URL, smallSpec("after", 54))
	waitState(t, hs.URL, id, stateDone)
}

// hostileSnapshot checkpoints a live endless job mid-measurement and
// cancels it. The returned forge rewrites the snapshot's first line
// starting with prefix and recomputes the checksum trailer over the
// edited body, so the edit reaches the section decoders.
func hostileSnapshot(t *testing.T, donor JobSpec) (forge func(prefix string, edit func(fields []string)) []byte) {
	t.Helper()
	_, hsSlow := testServer(t, blockerOptions)
	id := submit(t, hsSlow.URL, donor)
	deadline := time.Now().Add(30 * time.Second)
	for st := status(t, hsSlow.URL, id); st.Slot < 300; st = status(t, hsSlow.URL, id) {
		if st.State != stateQueued && st.State != stateRunning || time.Now().After(deadline) {
			t.Fatalf("donor never reached its measurement window (state %q slot %d)", st.State, st.Slot)
		}
		time.Sleep(time.Millisecond)
	}
	code, snap := postJSON(t, hsSlow.URL+"/v1/jobs/"+id+"/checkpoint", nil)
	if code != http.StatusOK {
		t.Fatalf("checkpoint: HTTP %d: %s", code, snap)
	}
	if code, data := postJSON(t, hsSlow.URL+"/v1/jobs/"+id+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, data)
	}
	text := string(snap)
	forge = func(prefix string, edit func(fields []string)) []byte {
		t.Helper()
		i := strings.Index(text, "\n"+prefix) + 1
		if i == 0 {
			t.Fatalf("checkpoint has no %q line", prefix)
		}
		j := i + strings.Index(text[i:], "\n")
		fields := strings.Split(text[i:j], " ")
		edit(fields)
		body := text[:i] + strings.Join(fields, " ") + text[j:strings.LastIndex(text, "checksum ")]
		h := fnv.New64a()
		_, _ = h.Write([]byte(body))
		return []byte(fmt.Sprintf("%schecksum %016x\n", body, h.Sum64()))
	}
	if got := forge("bin ", func([]string) {}); !bytes.Equal(got, snap) {
		t.Fatal("re-checksumming the unedited checkpoint changed it")
	}
	return forge
}

// TestHostileCheckpointCountRejected: a live job's checkpoint whose
// first latency histogram claims a bin of 2^62 cells, behind a
// recomputed checksum. The v1 sample list sized its buffer from such a
// count and panicked the restore handler (the client saw EOF); the
// histogram decoder refuses the count with a 400, and the daemon keeps
// serving.
func TestHostileCheckpointCountRejected(t *testing.T) {
	forge := hostileSnapshot(t, endlessSpec("hostile-donor", 56))
	_, hs := testServer(t, Options{})
	hostile := forge("bin ", func(f []string) { f[2] = "4611686018427387904" })
	if code, data := postJSON(t, hs.URL+"/v1/restore", hostile); code != http.StatusBadRequest {
		t.Fatalf("2^62-cell bin: HTTP %d (want 400): %s", code, data)
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after hostile restores: HTTP %d: %s", code, data)
	}
	waitState(t, hs.URL, submit(t, hs.URL, smallSpec("after", 57)), stateDone)
}

// TestHostileCheckpointDwellRejected: a live bursty job's checkpoint
// whose first ON/OFF generator claims a negative dwell counter, behind
// a recomputed checksum. Restored, that port would send every slot for
// good; the generator decoder refuses it with a 400, and the daemon
// keeps serving.
func TestHostileCheckpointDwellRejected(t *testing.T) {
	donor := endlessSpec("hostile-donor", 59)
	donor.Traffic.Kind, donor.Traffic.MeanBurst = "bursty", 8
	forge := hostileSnapshot(t, donor)
	_, hs := testServer(t, Options{})
	hostile := forge("burst ", func(f []string) { f[1], f[2] = "1", "-1" })
	if code, data := postJSON(t, hs.URL+"/v1/restore", hostile); code != http.StatusBadRequest {
		t.Fatalf("negative dwell: HTTP %d (want 400): %s", code, data)
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after hostile restore: HTTP %d: %s", code, data)
	}
}

// TestHostileCheckpointFlowRejected: a live job's checkpoint whose
// first allocator source counter claims 2^32 or 2^32+1, past what the
// 32-bit counters hold and what any timeline within
// packet.MaxTimelineSlots can reach (truncated, the second would
// restore as a plausible count of 1). The decoder refuses both with a
// 400, and the daemon keeps serving.
func TestHostileCheckpointFlowRejected(t *testing.T) {
	forge := hostileSnapshot(t, endlessSpec("hostile-donor", 58))
	_, hs := testServer(t, Options{})
	for _, count := range []string{"4294967296", "4294967297"} {
		hostile := forge("source ", func(f []string) { f[2] = count })
		if code, data := postJSON(t, hs.URL+"/v1/restore", hostile); code != http.StatusBadRequest {
			t.Fatalf("source count %s: HTTP %d (want 400): %s", count, code, data)
		}
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after hostile restore: HTTP %d: %s", code, data)
	}
}

// TestHostileCheckpointPortRejected: a live bursty job's checkpoint
// whose first ON/OFF generator bursts toward port 99999, or whose first
// queued cell claims source 2^22, behind a recomputed checksum. Both
// once restored with a 202: the burst failed the job at its first hop,
// and the source grew the order checker's table by 48 bytes per index
// before panicking on the shard lookup. The restore refuses both with a
// 400, and the daemon keeps serving.
func TestHostileCheckpointPortRejected(t *testing.T) {
	donor := endlessSpec("hostile-donor", 63)
	donor.Traffic.Kind, donor.Traffic.MeanBurst = "bursty", 8
	forge := hostileSnapshot(t, donor)
	_, hs := testServer(t, Options{})
	for _, tc := range []struct {
		name, prefix string
		edit         func(f []string)
	}{
		{"burst toward port 99999", "burst ", func(f []string) { f[1], f[2], f[3] = "1", "50", "99999" }},
		{"cell from source 2^22", "cell ", func(f []string) { f[2] = "4194304" }},
	} {
		code, data := postJSON(t, hs.URL+"/v1/restore", forge(tc.prefix, tc.edit))
		if code != http.StatusBadRequest || !strings.Contains(string(data), `record \"`+strings.TrimSpace(tc.prefix)+`\"`) {
			t.Fatalf("%s: HTTP %d (want 400 naming the record): %s", tc.name, code, data)
		}
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after hostile restores: HTTP %d: %s", code, data)
	}
}

// TestTimelinePastBoundRejected: a job whose warm-up plus measurement
// ends past packet.MaxTimelineSlots, or whose sum wraps uint64 (once
// accepted as a timeline of 0 slots), is refused with a 400, and the
// daemon keeps serving.
func TestTimelinePastBoundRejected(t *testing.T) {
	_, hs := testServer(t, Options{})
	for _, slots := range [][2]string{
		{"4294967295", "1"},
		{"9223372036854775808", "9223372036854775808"},
	} {
		body := `{"fabric":{"hosts":16,"radix":4},"traffic":{"kind":"uniform","load":0.5},` +
			`"warmup_slots":` + slots[0] + `,"measure_slots":` + slots[1] + `}`
		if code, data := postJSON(t, hs.URL+"/v1/jobs", []byte(body)); code != http.StatusBadRequest {
			t.Fatalf("warmup %s + measure %s: HTTP %d (want 400): %s", slots[0], slots[1], code, data)
		}
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after rejected timelines: HTTP %d: %s", code, data)
	}
}

// TestHostileTraceCountRejected: a submit whose inline v1 trace header
// claims 2^62 events. The v1 parser once sized its event slice from that
// count and panicked the submit handler (the client saw EOF). Traces are
// now osmosis-ckpt files that carry no event count, and a v1 upload is
// refused as a retired format: a 400, and the daemon keeps serving.
func TestHostileTraceCountRejected(t *testing.T) {
	_, hs := testServer(t, Options{})
	body := `{"fabric":{"hosts":4,"radix":4},"traffic":{"kind":"trace",` +
		`"trace":"osmosis-trace v1 n=4 slots=1 events=4611686018427387904\n"},"measure_slots":1}`
	if code, data := postJSON(t, hs.URL+"/v1/jobs", []byte(body)); code != http.StatusBadRequest {
		t.Fatalf("2^62-event trace: HTTP %d (want 400): %s", code, data)
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after hostile trace: HTTP %d: %s", code, data)
	}
}

// TestHostileTracePortRejected: an uploaded trace whose event after
// slot 0 names port 2^64−1. The v1 parser converted that port to -1,
// which passed every range check, so the submit got a 202 and replay
// indexed port -1 on a pool worker, killing the daemon. The v1 upload is
// now refused as a retired format, and the same event in the current
// format fails the range check made before any conversion to int: both
// are 400s, and the daemon keeps serving.
func TestHostileTracePortRejected(t *testing.T) {
	_, hs := testServer(t, Options{})
	// Write renders port -1 as its uint64 bits, 2^64−1, behind a valid
	// checksum.
	var ckptTrace strings.Builder
	hostile := traffic.Trace{N: 4, Slots: 2, Events: []traffic.TraceEvent{
		{Slot: 0, Port: 0, Dst: 1}, {Slot: 1, Port: -1, Dst: 1}}}
	if err := hostile.Write(&ckptTrace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ckptTrace.String(), "\ne 1 18446744073709551615 1 0\n") {
		t.Fatalf("forged trace lacks the 2^64-1 port:\n%s", ckptTrace.String())
	}
	for _, tc := range []struct{ name, trace, why string }{
		{"v1", "osmosis-trace v1 n=4 slots=2 events=2\n0 0 1 0\n1 18446744073709551615 1 0\n", "osmosis-trace v1"},
		{"osmosis-ckpt", ckptTrace.String(), "out of [0,4)"},
	} {
		body, err := json.Marshal(JobSpec{
			Fabric:       FabricSpec{Hosts: 4, Radix: 4},
			Traffic:      TrafficSpec{Kind: "trace", Trace: tc.trace},
			MeasureSlots: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		code, data := postJSON(t, hs.URL+"/v1/jobs", body)
		if code != http.StatusBadRequest || !strings.Contains(string(data), tc.why) {
			t.Fatalf("%s trace with port 2^64-1: HTTP %d (want 400 naming %q): %s", tc.name, code, tc.why, data)
		}
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after hostile traces: HTTP %d: %s", code, data)
	}
}

// TestCancelQueuedAndRunning covers both cancellation paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	// Queued: parked behind an endless job on a one-worker daemon.
	_, hsSlow := testServer(t, blockerOptions)
	waitState(t, hsSlow.URL, submit(t, hsSlow.URL, endlessSpec("blocker", 60)), stateRunning)
	qid := submit(t, hsSlow.URL, smallSpec("q-cancel", 61))
	if code, _ := postJSON(t, hsSlow.URL+"/v1/jobs/"+qid+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", code)
	}
	if st := status(t, hsSlow.URL, qid); st.State != stateCanceled {
		t.Errorf("queued job state %q after cancel, want %q", st.State, stateCanceled)
	}

	// Running: a slow engine canceled mid-run.
	_, hs := testServer(t, Options{ChunkSlots: 128, StepDelay: 2 * time.Millisecond})
	rid := submit(t, hs.URL, longSpec("r-cancel", 62))
	waitState(t, hs.URL, rid, stateRunning)
	if code, _ := postJSON(t, hs.URL+"/v1/jobs/"+rid+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := status(t, hs.URL, rid)
		if st.State == stateCanceled {
			break
		}
		if st.State != stateRunning || time.Now().After(deadline) {
			t.Fatalf("running job state %q after cancel", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if code, data := getBody(t, hs.URL+"/v1/jobs/"+rid+"/result"); code != http.StatusConflict {
		t.Errorf("result of canceled job: HTTP %d (want 409): %s", code, data)
	}
}

func mustJSON(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	data, err := spec.canonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// jobState reads a job's state under the server lock.
func jobState(s *Server, j *Job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state
}

// metricLine reports whether the /metrics page has the whole line.
func metricLine(t *testing.T, base, line string) bool {
	t.Helper()
	_, page := getBody(t, base+"/metrics")
	return strings.Contains(string(page), "\n"+line+"\n")
}

// TestPoolBoundsRunningJobs: Workers bounds every running job, whatever
// its shape, and queued jobs start oldest first as workers free up.
func TestPoolBoundsRunningJobs(t *testing.T) {
	_, hs := testServer(t, Options{Workers: 2, ChunkSlots: 128, StepDelay: time.Millisecond})
	other := endlessSpec("j2", 2)
	other.Fabric.Hosts, other.Fabric.Radix = 64, 8
	ids := []string{
		submit(t, hs.URL, endlessSpec("j1", 1)),
		submit(t, hs.URL, other),
		submit(t, hs.URL, endlessSpec("j3", 3)),
	}
	waitState(t, hs.URL, ids[0], stateRunning)
	waitState(t, hs.URL, ids[1], stateRunning)
	if st := status(t, hs.URL, ids[2]); st.State != stateQueued {
		t.Fatalf("third job is %q with both workers busy, want %q", st.State, stateQueued)
	}
	for _, line := range []string{`osmosisd_jobs{state="running"} 2`, `osmosisd_queue_depth 1`} {
		if !metricLine(t, hs.URL, line) {
			t.Errorf("metrics page lacks %q", line)
		}
	}
	// Freeing a worker starts the oldest queued job, not a newer one.
	ids = append(ids, submit(t, hs.URL, endlessSpec("j4", 4)))
	if code, data := postJSON(t, hs.URL+"/v1/jobs/"+ids[0]+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, data)
	}
	waitState(t, hs.URL, ids[2], stateRunning)
	if st := status(t, hs.URL, ids[3]); st.State != stateQueued {
		t.Errorf("fourth job is %q, want %q behind the third", st.State, stateQueued)
	}
	if !metricLine(t, hs.URL, `osmosisd_queue_depth 1`) {
		t.Error("metrics page lacks osmosisd_queue_depth 1 after the third job started")
	}
}

// TestBackToBackJobsStartOnIdleWorkers: jobs submitted together on a
// fresh pool all start at once. A wake-up signal that can drop a
// submission would leave the second job queued next to an idle worker
// until the first finished, which an endless first job never does.
func TestBackToBackJobsStartOnIdleWorkers(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewServer(Options{Workers: 2, ChunkSlots: 128, StepDelay: time.Millisecond})
		var jobs []*Job
		for i := 0; i < 2; i++ {
			spec := endlessSpec(fmt.Sprintf("b%d", i), uint64(i+1))
			j, err := s.submit(spec, mustJSON(t, spec), nil)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		deadline := time.Now().Add(10 * time.Second)
		for _, j := range jobs {
			for st := jobState(s, j); st != stateRunning; st = jobState(s, j) {
				if time.Now().After(deadline) {
					s.Close()
					t.Fatalf("round %d: job %s is %q next to an idle worker", round, j.id, st)
				}
				time.Sleep(time.Millisecond)
			}
		}
		s.Close()
	}
}

// TestCloseAndSuspendSettleQueuedJobs: a job still waiting for a worker
// is canceled by Close and written as a spec-only checkpoint by Suspend.
func TestCloseAndSuspendSettleQueuedJobs(t *testing.T) {
	start := func() (*Server, *Job, *Job) {
		s := NewServer(blockerOptions)
		var jobs []*Job
		for _, spec := range []JobSpec{endlessSpec("running", 81), smallSpec("queued", 82)} {
			j, err := s.submit(spec, mustJSON(t, spec), nil)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for jobState(s, jobs[0]) != stateRunning {
			time.Sleep(time.Millisecond)
		}
		return s, jobs[0], jobs[1]
	}

	s, running, queued := start()
	s.Close()
	for _, j := range []*Job{running, queued} {
		if got := jobState(s, j); got != stateCanceled {
			t.Errorf("Close left %s %q, want %q", j.spec.Name, got, stateCanceled)
		}
	}
	if _, err := s.submit(smallSpec("late", 83), nil, nil); err == nil {
		t.Error("closed daemon accepted a job")
	}

	s, running, queued = start()
	dir := t.TempDir()
	saved, err := s.Suspend(dir)
	if err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if saved != 2 {
		t.Fatalf("suspend persisted %d jobs, want 2", saved)
	}
	for _, c := range []struct {
		j     *Job
		phase string
	}{{running, phaseRunning}, {queued, phaseQueued}} {
		if got := jobState(s, c.j); got != stateSuspended {
			t.Errorf("Suspend left %s %q, want %q", c.j.spec.Name, got, stateSuspended)
		}
		data, err := os.ReadFile(filepath.Join(dir, c.j.id+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		h, err := parseJobCheckpoint(data)
		if err != nil {
			t.Fatalf("%s checkpoint: %v", c.j.spec.Name, err)
		}
		if h.phase != c.phase {
			t.Errorf("%s checkpoint phase %q, want %q", c.j.spec.Name, h.phase, c.phase)
		}
	}
}

// Format-drift guard for the osmosisd job checkpoint:
// testdata/job16_bimodal.ckpt was written by an earlier build. Every
// later build must write the same bytes for the same job at the same
// slot, and a daemon must restore the file through /v1/restore and
// finish it exactly as the uninterrupted twin does. Regenerate (only
// for a deliberate format change) with
//
//	go test ./internal/service -run TestGoldenJobCheckpointFile -update
var updateGolden = flag.Bool("update", false, "rewrite the golden job checkpoint under testdata")

const (
	goldenJobFile        = "job16_bimodal.ckpt"
	goldenJobAt   uint64 = 640 // mid-measurement
)

// goldenJobSpec is a small job carrying both traffic classes.
func goldenJobSpec() JobSpec {
	return JobSpec{
		Name:         "golden",
		Fabric:       FabricSpec{Hosts: 16, Radix: 4},
		Traffic:      TrafficSpec{Kind: "bimodal", Load: 0.6, ControlShare: 0.25, Seed: 5},
		WarmupSlots:  100,
		MeasureSlots: 1000,
	}
}

// goldenJobCheckpoint runs the golden job in process to goldenJobAt and
// snapshots it the way a daemon snapshots a running job.
func goldenJobCheckpoint(t *testing.T) []byte {
	t.Helper()
	spec := goldenJobSpec()
	specJSON, err := spec.canonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	f, gens, err := spec.buildEngine()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := fabric.StartSession(f, gens, spec.WarmupSlots, spec.MeasureSlots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(goldenJobAt); err != nil {
		t.Fatal(err)
	}
	data, err := encodeRunningCheckpoint("j1", specJSON, sess)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenJobCheckpointFile(t *testing.T) {
	path := filepath.Join("testdata", goldenJobFile)
	live := goldenJobCheckpoint(t)
	if *updateGolden {
		if err := os.WriteFile(path, live, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nq 1 ", "\noflow ", "\nsource "} {
		if !bytes.Contains(golden, []byte(want)) {
			t.Fatalf("golden job checkpoint lacks a %q record", strings.TrimSpace(want))
		}
	}
	if !bytes.Equal(live, golden) {
		t.Error("the golden job run to the golden slot no longer writes the golden bytes")
	}

	_, hs := testServer(t, Options{})
	code, data := postJSON(t, hs.URL+"/v1/restore", golden)
	if code != http.StatusAccepted {
		t.Fatalf("restore: HTTP %d: %s", code, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	spec := goldenJobSpec()
	restored := fingerprintOf(t, resultDoc(t, hs.URL, st.ID))
	twin := fingerprintOf(t, resultDoc(t, hs.URL, submit(t, hs.URL, spec)))
	if restored != twin {
		t.Errorf("job restored from the golden checkpoint diverged from its uninterrupted twin:\n  twin:     %s\n  restored: %s", twin, restored)
	}
	if want := directFingerprint(t, spec); twin != want {
		t.Errorf("daemon twin diverged from the in-process run:\n  direct: %s\n  daemon: %s", want, twin)
	}
}

// explodeMode picks the explodingScheduler method that panics.
type explodeMode int

const (
	explodeTick explodeMode = iota
	explodeLoad
	explodeSave
)

// explodingScheduler is FLPPR with one method that panics: TickInto,
// LoadState or SaveState, by mode.
type explodingScheduler struct {
	*sched.FLPPR
	mode explodeMode
}

func (x explodingScheduler) TickInto(slot uint64, b sched.Board, m *sched.Matching) {
	if x.mode == explodeTick {
		panic("scheduler exploded on its first tick")
	}
	x.FLPPR.TickInto(slot, b, m)
}

func (x explodingScheduler) LoadState(d *ckpt.Decoder) {
	if x.mode == explodeLoad {
		panic("scheduler exploded while loading its state")
	}
	x.FLPPR.LoadState(d)
}

func (x explodingScheduler) SaveState(e *ckpt.Encoder) {
	if x.mode == explodeSave {
		panic("scheduler exploded while saving its state")
	}
	x.FLPPR.SaveState(e)
}

// explodeSeed selects the exploding scheduler: jobs whose traffic seed
// is explodeSeed get one, every other job the real scheduler.
const explodeSeed = 666

// injectExplodingScheduler swaps the package's scheduler factory for
// the rest of the test.
func injectExplodingScheduler(t *testing.T, mode explodeMode) {
	t.Helper()
	real := schedulerFactory
	schedulerFactory = func(name string, radix int, seed uint64) (func() sched.Scheduler, error) {
		if seed != explodeSeed {
			return real(name, radix, seed)
		}
		return func() sched.Scheduler {
			return explodingScheduler{FLPPR: sched.NewFLPPR(radix, 0), mode: mode}
		}, nil
	}
	t.Cleanup(func() { schedulerFactory = real })
}

// TestPanickingJobFailsAlone: a job whose scheduler panics on its first
// tick fails with the panic text in its error, on a one-worker pool;
// the daemon keeps serving, and a normal job queued behind it on the
// same worker completes.
func TestPanickingJobFailsAlone(t *testing.T) {
	injectExplodingScheduler(t, explodeTick)
	_, hs := testServer(t, Options{Workers: 1})
	bad := submit(t, hs.URL, smallSpec("exploding", explodeSeed))
	good := submit(t, hs.URL, smallSpec("after", 61))
	deadline := time.Now().Add(30 * time.Second)
	st := status(t, hs.URL, bad)
	for st.State == stateQueued || st.State == stateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("exploding job never settled (state %q)", st.State)
		}
		time.Sleep(time.Millisecond)
		st = status(t, hs.URL, bad)
	}
	if st.State != stateFailed || !strings.Contains(st.Error, "scheduler exploded on its first tick") {
		t.Fatalf("exploding job ended %q with error %q; want failed with the panic text", st.State, st.Error)
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after a panicking job: HTTP %d: %s", code, data)
	}
	waitState(t, hs.URL, good, stateDone)
}

// TestRestoreDirSurvivesPanickingRestore: a checkpoint whose restore
// panics inside the engine is reported as that file's error by the
// start-up restore instead of crashing the daemon, and an upload of it
// gets a 400.
func TestRestoreDirSurvivesPanickingRestore(t *testing.T) {
	spec := smallSpec("exploding-restore", explodeSeed)
	specJSON, err := spec.canonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	f, gens, err := spec.buildEngine()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := fabric.StartSession(f, gens, spec.WarmupSlots, spec.MeasureSlots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Advance(300); err != nil {
		t.Fatal(err)
	}
	snap, err := encodeRunningCheckpoint("j1", specJSON, sess)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "j1.ckpt"), snap, 0o644); err != nil {
		t.Fatal(err)
	}

	injectExplodingScheduler(t, explodeLoad)
	s, hs := testServer(t, Options{})
	if n, err := s.RestoreDir(dir); n != 0 || err == nil || !strings.Contains(err.Error(), "exploded while loading") {
		t.Fatalf("RestoreDir = %d, %v; want 0 and an error carrying the panic text", n, err)
	}
	if code, data := postJSON(t, hs.URL+"/v1/restore", snap); code != http.StatusBadRequest {
		t.Fatalf("restore upload: HTTP %d (want 400): %s", code, data)
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after a panicking restore: HTTP %d: %s", code, data)
	}
	waitState(t, hs.URL, submit(t, hs.URL, smallSpec("after", 62)), stateDone)
}

// TestCheckpointSurvivesPanickingSave: a checkpoint request whose
// snapshot panics inside the engine gets an error reply instead of
// waiting forever, the job fails with the panic text, and the daemon
// keeps serving.
func TestCheckpointSurvivesPanickingSave(t *testing.T) {
	injectExplodingScheduler(t, explodeSave)
	_, hs := testServer(t, blockerOptions)
	id := submit(t, hs.URL, endlessSpec("exploding-save", explodeSeed))
	deadline := time.Now().Add(30 * time.Second)
	for st := status(t, hs.URL, id); st.State != stateRunning || st.Slot == 0; st = status(t, hs.URL, id) {
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %q)", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	type reply struct {
		code int
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		code, body := postJSON(t, hs.URL+"/v1/jobs/"+id+"/checkpoint", nil)
		done <- reply{code, body}
	}()
	select {
	case r := <-done:
		if r.code == http.StatusOK {
			t.Fatalf("checkpoint of an exploding save answered 200 (%d bytes)", len(r.body))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("checkpoint request still waiting 30 s after the engine panicked")
	}
	if st := waitState(t, hs.URL, id, stateFailed); !strings.Contains(st.Error, "exploded while saving") {
		t.Errorf("job error %q, want the panic text", st.Error)
	}
	if code, data := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after a panicking checkpoint: HTTP %d: %s", code, data)
	}
}
