package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options tune the daemon; zero values select production defaults.
type Options struct {
	// Workers is the size of the job pool: how many jobs run at once
	// (default GOMAXPROCS). Further jobs wait in the queue.
	Workers int
	// ChunkSlots is the engine pause granularity: progress publication
	// and control rendezvous happen every ChunkSlots (default 256).
	ChunkSlots uint64
	// StepDelay inserts a wall-clock pause after each chunk. Engine
	// state is a function of the spec alone, so this changes timing,
	// never results; tests use it to pin jobs mid-run.
	StepDelay time.Duration
	// MaxBodyBytes caps request bodies (default 64 MiB; trace uploads
	// and checkpoints are large).
	MaxBodyBytes int64
}

// Server is the osmosisd daemon core: job registry, worker pool, and
// HTTP surface. One mutex guards all job bookkeeping; engines only take
// it at chunk boundaries.
type Server struct {
	mu     sync.Mutex
	ready  *sync.Cond // on mu: signaled per queued job, broadcast on close
	jobs   map[string]*Job
	order  []*Job // submission order, for listings
	queue  []*Job // waiting for a worker, oldest first
	nextID int

	slotsTotal uint64
	started    time.Time

	chunkSlots   uint64
	stepDelay    time.Duration
	maxBodyBytes int64

	closed    chan struct{} // closed under mu when the daemon shuts down
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewServer builds a daemon and starts its Workers pool goroutines.
// Each takes the oldest queued job, runs it to a terminal state, and
// repeats until Close or Suspend.
func NewServer(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.ChunkSlots == 0 {
		opts.ChunkSlots = 256
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	s := &Server{
		jobs:         make(map[string]*Job),
		started:      time.Now(),
		chunkSlots:   opts.ChunkSlots,
		stepDelay:    opts.StepDelay,
		maxBodyBytes: opts.MaxBodyBytes,
		closed:       make(chan struct{}),
	}
	s.ready = sync.NewCond(&s.mu)
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.work()
	}
	return s
}

// shutdown stops the pool: no queued job starts after it returns, and
// idle workers exit.
func (s *Server) shutdown() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		close(s.closed)
		s.mu.Unlock()
		s.ready.Broadcast()
	})
}

// closingLocked reports whether shutdown has begun; callers hold mu.
func (s *Server) closingLocked() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// Close stops the pool, cancels live jobs, and waits for all engines to
// exit. Job state stays readable afterwards.
func (s *Server) Close() {
	s.shutdown()
	for _, j := range s.liveJobs() {
		s.cancelJob(j)
	}
	s.wg.Wait()
}

// liveJobs snapshots every job not yet terminal.
func (s *Server) liveJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []*Job
	for _, j := range s.order {
		if j.state == stateQueued || j.state == stateRunning {
			live = append(live, j)
		}
	}
	return live
}

// work is one pool goroutine: it runs queued jobs oldest first until
// the daemon shuts down.
func (s *Server) work() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closingLocked() {
			s.ready.Wait()
		}
		if s.closingLocked() {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		j.state = stateRunning
		s.mu.Unlock()
		s.runGuarded(j)
	}
}

// runGuarded runs a job on the calling pool worker and turns a panic
// inside its engine into that job's failure, with the panic text in its
// error, so one job cannot take down the daemon or the jobs next to it.
// (A sharded engine re-raises a shard's panic on this goroutine.)
func (s *Server) runGuarded(j *Job) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.mu.Lock()
		running := j.state == stateRunning
		s.mu.Unlock()
		if running {
			s.failJob(j, fmt.Errorf("service: job %s panicked: %v", j.id, r))
		}
	}()
	s.runJob(j)
}

// dequeueLocked removes a queued job from the queue; callers hold mu.
func (s *Server) dequeueLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// submit registers a job (fresh or restored) and wakes one worker.
func (s *Server) submit(spec JobSpec, specJSON, resume []byte) (*Job, error) {
	s.mu.Lock()
	if s.closingLocked() {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: daemon is shutting down")
	}
	s.nextID++
	j := &Job{
		id:       fmt.Sprintf("j%d", s.nextID),
		spec:     spec,
		specJSON: specJSON,
		state:    stateQueued,
		resume:   resume,
		endSlot:  spec.totalSlots(),
		ctl:      make(chan ctlReq),
		ctlDone:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.ready.Signal()
	return j, nil
}

// setJobState transitions a job (engine side) and closes done on
// terminal or suspended states.
func (s *Server) setJobState(j *Job, state, errMsg string) {
	s.mu.Lock()
	j.state = state
	j.err = errMsg
	s.mu.Unlock()
	switch state {
	case stateDone, stateFailed, stateCanceled, stateSuspended:
		close(j.done)
	}
}

func (s *Server) failJob(j *Job, err error) { s.setJobState(j, stateFailed, err.Error()) }

// finishJob publishes the final progress snapshot and result.
func (s *Server) finishJob(j *Job, slot, latN uint64, r *Result, start time.Time) {
	s.mu.Lock()
	j.slot = slot
	j.offered = r.Offered
	j.delivered = r.Delivered
	j.latN = latN
	j.latP50, j.latP99 = r.P50LatencySlots, r.P99LatencySlots
	j.runSeconds = time.Since(start).Seconds()
	j.result = r
	s.mu.Unlock()
	s.setJobState(j, stateDone, "")
}

// cancelJob cancels a queued or running job; terminal jobs are left
// alone. It reports whether a transition happened.
func (s *Server) cancelJob(j *Job) bool {
	s.mu.Lock()
	switch j.state {
	case stateQueued:
		s.dequeueLocked(j)
		j.state = stateCanceled
		s.mu.Unlock()
		close(j.done)
		return true
	case stateRunning:
		s.mu.Unlock()
		if _, err := j.control(ctlCancel); err != nil {
			return false // engine won the race and already exited
		}
		return true
	}
	s.mu.Unlock()
	return false
}

// checkpointJob snapshots a job: queued jobs serialize spec-only,
// running jobs rendezvous with the engine at its next chunk boundary.
func (s *Server) checkpointJob(j *Job) ([]byte, error) {
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	switch state {
	case stateQueued:
		return encodeQueuedCheckpoint(j.id, j.specJSON)
	case stateRunning:
		return j.control(ctlCheckpoint)
	}
	return nil, fmt.Errorf("service: job %s is %s; nothing to checkpoint", j.id, state)
}

// Suspend checkpoints every live job into dir (<id>.ckpt), stopping
// their engines, and shuts the daemon down. It returns how many jobs
// were persisted; a later RestoreDir on a fresh daemon continues them
// bit-exactly.
func (s *Server) Suspend(dir string) (int, error) {
	s.shutdown()
	var saved int
	var firstErr error
	for _, j := range s.liveJobs() {
		s.mu.Lock()
		state := j.state
		s.mu.Unlock()
		var data []byte
		var err error
		switch state {
		case stateQueued:
			if data, err = encodeQueuedCheckpoint(j.id, j.specJSON); err == nil {
				s.mu.Lock()
				s.dequeueLocked(j)
				j.state = stateSuspended
				s.mu.Unlock()
				close(j.done)
			}
		case stateRunning:
			data, err = j.control(ctlSuspend)
			if err == errNotRunning {
				// The engine finished between the state snapshot and the
				// rendezvous; a done job needs no persistence.
				continue
			}
			if err == errDraining {
				// Past the timeline: the rest of the run is a deterministic
				// drain, so let it finish instead of snapshotting.
				<-j.done
				continue
			}
		default:
			continue
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("service: suspend %s: %w", j.id, err)
			}
			continue
		}
		path := filepath.Join(dir, j.id+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		saved++
	}
	s.wg.Wait()
	return saved, firstErr
}

// RestoreDir loads every *.ckpt file in dir (sorted by name) as a job
// and removes the files it consumed. Called once at daemon start.
func (s *Server) RestoreDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ckpt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var restored int
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return restored, err
		}
		if _, err := s.restore(data); err != nil {
			return restored, fmt.Errorf("service: restore %s: %w", name, err)
		}
		if err := os.Remove(path); err != nil {
			return restored, err
		}
		restored++
	}
	return restored, nil
}

// restore validates a job checkpoint and submits it as a new job that
// continues the saved run. A panic raised while the checkpoint is
// checked against a freshly built engine becomes an error: the start-up
// restore has no HTTP server to recover it, and an upload gets a 400
// instead of a dropped connection.
func (s *Server) restore(data []byte) (j *Job, err error) {
	defer func() {
		if r := recover(); r != nil {
			j, err = nil, fmt.Errorf("service: restore panicked: %v", r)
		}
	}()
	h, err := parseJobCheckpoint(data)
	if err != nil {
		return nil, err
	}
	resume := data
	if h.phase == phaseQueued {
		resume = nil // nothing to resume; run fresh from the spec
	}
	return s.submit(h.spec, h.specJSON, resume)
}

// unmarshalSpecStrict decodes a JobSpec rejecting unknown fields, so a
// typo'd option fails loudly instead of silently selecting a default.
func unmarshalSpecStrict(data []byte, spec *JobSpec) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return err
	}
	return nil
}

// ---- HTTP surface ----

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/restore", s.handleRestore)
	return mux
}

// writeJSON emits a JSON response; encode errors after the header is
// committed can only be logged to the connection, so they are dropped
// deliberately.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return
	}
}

// httpError emits a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var spec JobSpec
	if err := unmarshalSpecStrict(body, &spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := spec.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	specJSON, err := spec.canonicalJSON()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.submit(spec, specJSON, nil)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

// jobFor resolves the {id} path parameter.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", id))
		return nil
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]Status, 0, len(s.order))
	for _, j := range s.order {
		list = append(list, j.statusLocked())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	res, state := j.result, j.state
	s.mu.Unlock()
	if res == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("service: job %s is %s; no result yet", j.id, state))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleStream sends newline-delimited JSON status snapshots until the
// job reaches a terminal state (the final line carries it), the client
// goes away, or the daemon closes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func() bool {
		s.mu.Lock()
		st := j.statusLocked()
		s.mu.Unlock()
		if err := enc.Encode(st); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for {
		if !emit() {
			return
		}
		select {
		case <-j.done:
			_ = emit()
			return
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		case <-ticker.C:
		}
	}
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	data, err := s.checkpointJob(j)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		return
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.cancelJob(j)
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.restore(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

// handleMetrics renders the Prometheus-style text page. Lines are
// emitted in a fixed sorted order so scrapes diff cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	s.mu.Lock()
	counts := make(map[string]int, len(jobStates))
	for _, j := range s.order {
		counts[j.state]++
	}
	queueDepth := len(s.queue)
	slotsTotal := s.slotsTotal
	uptime := time.Since(s.started).Seconds()
	type jobLine struct {
		id         string
		slot       uint64
		p50, p99   float64
		latN       uint64
		slotsRun   uint64
		runSeconds float64
	}
	lines := make([]jobLine, 0, len(s.order))
	for _, j := range s.order {
		lines = append(lines, jobLine{
			id: j.id, slot: j.slot, p50: j.latP50, p99: j.latP99,
			latN: j.latN, slotsRun: j.slotsRun, runSeconds: j.runSeconds,
		})
	}
	s.mu.Unlock()

	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	b.WriteString("# osmosisd metrics (text format; lines are stably ordered)\n")
	for _, st := range jobStates {
		fmt.Fprintf(&b, "osmosisd_jobs{state=%q} %d\n", st, counts[st])
	}
	fmt.Fprintf(&b, "osmosisd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(&b, "osmosisd_slots_total %d\n", slotsTotal)
	rate := 0.0
	if uptime > 0 {
		rate = float64(slotsTotal) / uptime
	}
	fmt.Fprintf(&b, "osmosisd_slots_per_second %s\n", f(rate))
	fmt.Fprintf(&b, "osmosisd_uptime_seconds %s\n", f(uptime))
	// Job IDs are j<seq>; submission order (s.order) already sorts them.
	for _, l := range lines {
		if l.latN > 0 {
			fmt.Fprintf(&b, "osmosisd_job_latency_slots{job=%q,quantile=\"0.5\"} %s\n", l.id, f(l.p50))
			fmt.Fprintf(&b, "osmosisd_job_latency_slots{job=%q,quantile=\"0.99\"} %s\n", l.id, f(l.p99))
		}
		fmt.Fprintf(&b, "osmosisd_job_progress_slots{job=%q} %d\n", l.id, l.slot)
		if l.runSeconds > 0 {
			fmt.Fprintf(&b, "osmosisd_job_slots_per_second{job=%q} %s\n", l.id, f(float64(l.slotsRun)/l.runSeconds))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, b.String()); err != nil {
		return
	}
}
