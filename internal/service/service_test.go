package service

// Daemon-level determinism tests. The contract under test is the
// tentpole acceptance criterion: a job's result is a function of its
// spec alone — two concurrent batched jobs with equal specs produce
// byte-identical result documents, a job checkpointed over HTTP,
// killed, and restored on a fresh daemon finishes byte-identical to an
// uninterrupted twin, and all of it holds under the race detector while
// metrics scrapes hammer the live run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
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
// results to the fabric library: batching, chunking, and HTTP plumbing
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
// four shape-compatible jobs submitted together (so the batcher coalesces
// them onto one parallel.Run), two of them with identical specs. The
// twins must produce byte-identical result documents, every job must
// match its in-process engine run, and a repeat submission on the same
// live daemon must reproduce the first round exactly.
func TestConcurrentBatchedJobsDeterministic(t *testing.T) {
	_, hs := testServer(t, Options{MaxBatch: 8, BatchWindow: 10 * time.Millisecond, Workers: 4})
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
	_, hsA := testServer(t, Options{BatchWindow: time.Millisecond, ChunkSlots: 256, StepDelay: 2 * time.Millisecond})
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
	if !strings.HasPrefix(string(snap), "osmosis-ckpt v1\n") {
		t.Fatalf("checkpoint does not open with the v1 header: %.40q", snap)
	}
	if code, data := postJSON(t, hsA.URL+"/v1/jobs/"+id+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, data)
	}

	// Daemon B — fresh process state — continues from the snapshot at
	// full speed, next to an uninterrupted twin of the same spec.
	_, hsB := testServer(t, Options{BatchWindow: time.Millisecond})
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

	sA := NewServer(Options{BatchWindow: time.Millisecond, ChunkSlots: 256, StepDelay: 2 * time.Millisecond, Workers: 2})
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
	sB, hsB := testServer(t, Options{BatchWindow: time.Millisecond})
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
	_, hs := testServer(t, Options{BatchWindow: time.Millisecond, ChunkSlots: 128, StepDelay: time.Millisecond})
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
	_, hs := testServer(t, Options{BatchWindow: time.Millisecond, ChunkSlots: 256, StepDelay: time.Millisecond})
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
	_, hs := testServer(t, Options{BatchWindow: time.Millisecond})
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
	// Done jobs refuse to checkpoint (409) — take one from a queued job
	// on a daemon whose dispatcher is effectively stalled instead.
	if code, data := postJSON(t, hs.URL+"/v1/jobs/"+id+"/checkpoint", nil); code != http.StatusConflict {
		t.Errorf("checkpoint of done job: HTTP %d (want 409): %s", code, data)
	}
	_, hsSlow := testServer(t, Options{BatchWindow: time.Hour})
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
	if code, _ := postJSON(t, hs.URL+"/v1/restore", []byte("osmosis-ckpt v2\n")); code != http.StatusBadRequest {
		t.Errorf("future-version snapshot accepted: HTTP %d", code)
	}
}

// TestOverflowingLinkDelayRejected: a link delay whose slot rings
// overflow int used to pass validation and then panic the batch worker
// building the fabric, taking the whole daemon down. It must be refused
// at submission, and the daemon must keep serving.
func TestOverflowingLinkDelayRejected(t *testing.T) {
	_, hs := testServer(t, Options{BatchWindow: time.Millisecond})
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

// TestCancelQueuedAndRunning covers both cancellation paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	// Queued: a dispatcher that never fires within the test window.
	_, hsSlow := testServer(t, Options{BatchWindow: time.Hour})
	qid := submit(t, hsSlow.URL, smallSpec("q-cancel", 61))
	if code, _ := postJSON(t, hsSlow.URL+"/v1/jobs/"+qid+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", code)
	}
	if st := status(t, hsSlow.URL, qid); st.State != stateCanceled {
		t.Errorf("queued job state %q after cancel, want %q", st.State, stateCanceled)
	}

	// Running: a slow engine canceled mid-run.
	_, hs := testServer(t, Options{BatchWindow: time.Millisecond, ChunkSlots: 128, StepDelay: 2 * time.Millisecond})
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

// TestBatchingGroupsCompatibleShapes exercises the batcher directly:
// equal-key jobs coalesce up to MaxBatch, foreign shapes stay behind.
func TestBatchingGroupsCompatibleShapes(t *testing.T) {
	s := NewServer(Options{BatchWindow: time.Hour}) // dispatcher stays out of the way
	defer s.Close()
	same := smallSpec("same", 71)
	other := smallSpec("other", 72)
	other.Fabric.Hosts = 64
	other.Fabric.Radix = 8
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.submit(same, mustJSON(t, same), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	oj, err := s.submit(other, mustJSON(t, other), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := s.takeBatch()
	if len(batch) != 3 {
		t.Fatalf("first batch has %d jobs, want the 3 compatible ones", len(batch))
	}
	for i, j := range batch {
		if j != jobs[i] {
			t.Errorf("batch[%d] is not submission %d", i, i)
		}
	}
	second := s.takeBatch()
	if len(second) != 1 || second[0] != oj {
		t.Fatalf("second batch = %v, want just the foreign-shape job", second)
	}
	if s.takeBatch() != nil {
		t.Error("third batch not empty")
	}
	// Mark them terminal so Close doesn't wait on engines that never ran.
	for _, j := range append(batch, second...) {
		s.setJobState(j, stateCanceled, "")
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
