package service

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fabric"
)

// Job states. A job is terminal in done, failed, or canceled; suspended
// means the engine was checkpointed and stopped (daemon shutdown) and
// the job continues on a future restore.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCanceled  = "canceled"
	stateSuspended = "suspended"
)

// jobStates lists every state in metric-rendering order.
var jobStates = []string{stateCanceled, stateDone, stateFailed, stateQueued, stateRunning, stateSuspended}

// ctlKind selects what a control rendezvous asks the engine to do.
type ctlKind int

const (
	ctlCheckpoint ctlKind = iota // snapshot, keep running
	ctlSuspend                   // snapshot, stop the engine
	ctlCancel                    // stop the engine, discard state
)

type ctlReq struct {
	kind  ctlKind
	reply chan ctlReply
}

type ctlReply struct {
	data []byte
	err  error
}

// Job is one submitted simulation. Mutable fields are guarded by the
// owning Server's mutex; the engine goroutine publishes progress under
// it at chunk boundaries, so scrapes never race live engine state.
type Job struct {
	id       string
	spec     JobSpec
	specJSON []byte

	state string
	err   string

	// resume holds the osmosisd-job checkpoint this job continues from
	// (nil for fresh submissions).
	resume []byte

	// Progress snapshot, published at chunk boundaries.
	slot, endSlot      uint64
	offered, delivered uint64
	latN               uint64
	latP50, latP99     float64
	slotsRun           uint64
	runSeconds         float64

	result *Result

	// ctl is the engine rendezvous: handlers send requests, the engine
	// drains them between chunks. ctlDone closes when the engine exits,
	// releasing any sender still waiting.
	ctl     chan ctlReq
	ctlDone chan struct{}
	// done closes when the job leaves the live states.
	done chan struct{}
}

// Result is the terminal report of a finished job. Fingerprint is the
// byte-exact determinism contract: two jobs with equal specs — or a
// checkpointed job and its uninterrupted twin — produce equal strings.
type Result struct {
	Fingerprint        string            `json:"fingerprint"`
	Offered            uint64            `json:"offered"`
	Delivered          uint64            `json:"delivered"`
	MeasureSlots       uint64            `json:"measure_slots"`
	ThroughputPerHost  float64           `json:"throughput_per_host"`
	MeanLatencySlots   float64           `json:"mean_latency_slots"`
	P50LatencySlots    float64           `json:"p50_latency_slots"`
	P99LatencySlots    float64           `json:"p99_latency_slots"`
	ControlMeanSlots   float64           `json:"control_mean_slots,omitempty"`
	ControlN           uint64            `json:"control_n,omitempty"`
	HopHistogram       map[string]uint64 `json:"hop_histogram"`
	OrderViolations    uint64            `json:"order_violations"`
	Dropped            uint64            `json:"dropped"`
	FCBlocked          uint64            `json:"fc_blocked"`
	MaxVOQDepth        int               `json:"max_voq_depth"`
	MaxInterInputDepth int               `json:"max_inter_input_depth"`
	DrainedSlots       uint64            `json:"drained_slots"`
}

// Status is the wire form of a job's current state.
type Status struct {
	ID        string  `json:"id"`
	Name      string  `json:"name,omitempty"`
	State     string  `json:"state"`
	Error     string  `json:"error,omitempty"`
	Slot      uint64  `json:"slot"`
	EndSlot   uint64  `json:"end_slot"`
	Offered   uint64  `json:"offered"`
	Delivered uint64  `json:"delivered"`
	LatencyN  uint64  `json:"latency_n"`
	P50       float64 `json:"p50_latency_slots"`
	P99       float64 `json:"p99_latency_slots"`
}

// resultOf condenses final fabric metrics (after drain) into the wire
// result.
func resultOf(spec *JobSpec, m *fabric.Metrics, drained uint64) *Result {
	hops := make(map[string]uint64, len(m.HopHistogram))
	for h, n := range m.HopHistogram {
		hops[strconv.Itoa(h)] = n
	}
	r := &Result{
		Fingerprint:        m.Fingerprint(),
		Offered:            m.Offered,
		Delivered:          m.Delivered,
		MeasureSlots:       m.MeasureSlots,
		ThroughputPerHost:  m.ThroughputPerHost(spec.Fabric.Hosts),
		MeanLatencySlots:   float64(m.LatencySlots.Mean()),
		P50LatencySlots:    float64(m.LatencySlots.Quantile(0.5)),
		P99LatencySlots:    float64(m.LatencySlots.P99()),
		HopHistogram:       hops,
		OrderViolations:    m.OrderViolations,
		Dropped:            m.Dropped,
		FCBlocked:          m.FCBlocked,
		MaxVOQDepth:        m.MaxVOQDepth,
		MaxInterInputDepth: m.MaxInterInputDepth,
		DrainedSlots:       drained,
	}
	if n := m.ControlLatencySlots.N(); n > 0 {
		r.ControlMeanSlots = float64(m.ControlLatencySlots.Mean())
		r.ControlN = uint64(n)
	}
	return r
}

// The osmosisd-job checkpoint wraps a fabric session snapshot with the
// job's identity and spec, so a bare checkpoint file is sufficient to
// reconstruct and continue the job on any daemon:
//
//	osmosis-ckpt v2
//	begin osmosisd-job
//	job <id> <phase>          # phase: queued | running
//	spec <canonical JSON>
//	begin session ... end session   # running phase only
//	end osmosisd-job
//	checksum <fnv64a>
const (
	phaseQueued  = "queued"
	phaseRunning = "running"
)

// encodeJobHeader writes the osmosisd-job framing up to (not including)
// the session payload.
func encodeJobHeader(e *ckpt.Encoder, id, phase string, specJSON []byte) {
	e.Begin("osmosisd-job")
	e.Put("job", ckpt.Quote(id), ckpt.Quote(phase))
	e.Put("spec", ckpt.Quote(string(specJSON)))
}

// encodeQueuedCheckpoint snapshots a job that has not started: spec
// only, no engine state.
func encodeQueuedCheckpoint(id string, specJSON []byte) ([]byte, error) {
	var buf bytes.Buffer
	e := ckpt.NewEncoder(&buf)
	encodeJobHeader(e, id, phaseQueued, specJSON)
	e.End("osmosisd-job")
	if err := e.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeRunningCheckpoint snapshots a live engine mid-run. Only legal
// at a session pause point (Advance barrier), which is where the engine
// services control requests.
func encodeRunningCheckpoint(id string, specJSON []byte, sess *fabric.Session) ([]byte, error) {
	var buf bytes.Buffer
	e := ckpt.NewEncoder(&buf)
	encodeJobHeader(e, id, phaseRunning, specJSON)
	sess.SaveState(e)
	e.End("osmosisd-job")
	if err := e.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jobHeader is the decoded osmosisd-job framing.
type jobHeader struct {
	phase    string
	spec     JobSpec
	specJSON []byte
}

// decodeJobHeader reads the framing up to the optional session payload.
// The caller continues with ResumeSessionState (running phase) or
// finishJobDecode (queued phase).
func decodeJobHeader(d *ckpt.Decoder) (*jobHeader, error) {
	if err := d.Begin("osmosisd-job"); err != nil {
		return nil, err
	}
	jr := d.Record("job")
	jr.Str() // the saved job id: a restore assigns a fresh one
	phase := jr.Str()
	if err := jr.Done(); err != nil {
		return nil, err
	}
	if phase != phaseQueued && phase != phaseRunning {
		return nil, fmt.Errorf("service: job checkpoint phase %q unknown", phase)
	}
	sr := d.Record("spec")
	specJSON := sr.Str()
	if err := sr.Done(); err != nil {
		return nil, err
	}
	h := &jobHeader{phase: phase, specJSON: []byte(specJSON)}
	if err := unmarshalSpecStrict(h.specJSON, &h.spec); err != nil {
		return nil, fmt.Errorf("service: job checkpoint spec: %w", err)
	}
	if err := h.spec.validate(); err != nil {
		return nil, fmt.Errorf("service: job checkpoint spec: %w", err)
	}
	return h, nil
}

// finishJobDecode consumes the framing trailer after the payload.
func finishJobDecode(d *ckpt.Decoder) error {
	if err := d.End("osmosisd-job"); err != nil {
		return err
	}
	return d.Close()
}

// parseJobCheckpoint validates a full checkpoint upload and returns its
// header. For running-phase checkpoints the session payload is decoded
// against a freshly built engine — a full dry run of the restore — so a
// corrupt or mismatched upload is rejected at the HTTP boundary, not
// on a pool worker hours later.
func parseJobCheckpoint(data []byte) (*jobHeader, error) {
	d, err := ckpt.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	h, err := decodeJobHeader(d)
	if err != nil {
		return nil, err
	}
	if h.phase == phaseRunning {
		f, gens, err := h.spec.buildEngine()
		if err != nil {
			return nil, err
		}
		if _, err := fabric.ResumeSessionState(f, gens, d); err != nil {
			return nil, err
		}
	}
	if err := finishJobDecode(d); err != nil {
		return nil, err
	}
	return h, nil
}

// startEngine builds the job's engine: a fresh session for new jobs, a
// restored one for jobs resumed from a checkpoint.
func startEngine(j *Job) (*fabric.Session, error) {
	f, gens, err := j.spec.buildEngine()
	if err != nil {
		return nil, err
	}
	if j.resume == nil {
		return fabric.StartSession(f, gens, j.spec.WarmupSlots, j.spec.MeasureSlots)
	}
	d, err := ckpt.NewDecoder(bytes.NewReader(j.resume))
	if err != nil {
		return nil, err
	}
	h, err := decodeJobHeader(d)
	if err != nil {
		return nil, err
	}
	var sess *fabric.Session
	switch h.phase {
	case phaseQueued:
		sess, err = fabric.StartSession(f, gens, j.spec.WarmupSlots, j.spec.MeasureSlots)
	case phaseRunning:
		sess, err = fabric.ResumeSessionState(f, gens, d)
	}
	if err != nil {
		return nil, err
	}
	if err := finishJobDecode(d); err != nil {
		return nil, err
	}
	return sess, nil
}

// errNotRunning reports a rendezvous attempted after the engine exited.
var errNotRunning = errors.New("service: job is not running")

// errDraining reports a checkpoint attempted after the session timeline
// completed: the snapshot format captures a point inside the timeline,
// and the remaining drain is deterministic, so the caller should simply
// wait for the result.
var errDraining = errors.New("service: job is draining; too late to checkpoint")

// control performs a blocking rendezvous with the job's engine, which
// drains the channel between chunks. ctlDone releases the sender if the
// engine exits first, or exits while serving the request without a
// reply (a panic recovered by runGuarded). A reply sent before the exit
// is buffered and wins, so a suspend still returns its snapshot.
func (j *Job) control(kind ctlKind) ([]byte, error) {
	req := ctlReq{kind: kind, reply: make(chan ctlReply, 1)}
	select {
	case j.ctl <- req:
	case <-j.ctlDone:
		return nil, errNotRunning
	}
	select {
	case rep := <-req.reply:
		return rep.data, rep.err
	case <-j.ctlDone:
	}
	select {
	case rep := <-req.reply:
		return rep.data, rep.err
	default:
		return nil, errNotRunning
	}
}

// runJob is the engine loop, executed on a pool worker. It
// advances the session in chunks, publishing progress and servicing
// control requests at every pause, then drains the fabric to idle and
// records the result.
func (s *Server) runJob(j *Job) {
	defer s.engineExit(j)
	sess, err := startEngine(j)
	if err != nil {
		s.failJob(j, err)
		return
	}
	start := time.Now()
	startSlot := sess.Slot()
	for !sess.Done() {
		if stop := s.serviceControl(j, sess); stop {
			return
		}
		if _, err := sess.Advance(s.chunkSlots); err != nil {
			s.failJob(j, err)
			return
		}
		s.publishProgress(j, sess, start, startSlot)
		if s.stepDelay > 0 {
			time.Sleep(s.stepDelay)
		}
	}
	// Drain to idle. The session timeline is over, so checkpoints are no
	// longer possible (the snapshot format captures a point inside the
	// timeline); cancellation still is.
	f := sess.Fabric()
	bound := j.spec.drainBound()
	var drained uint64
	for drained < bound && !f.Idle() {
		if stop := s.serviceDrainControl(j); stop {
			return
		}
		n := s.chunkSlots
		if rem := bound - drained; rem < n {
			n = rem
		}
		if _, err := f.Drain(n); err != nil {
			s.failJob(j, err)
			return
		}
		drained += n
	}
	if !f.Idle() {
		s.failJob(j, fmt.Errorf("service: fabric not idle after %d drain slots", bound))
		return
	}
	m := sess.Metrics()
	s.finishJob(j, sess.Slot(), uint64(m.LatencySlots.N()), resultOf(&j.spec, m, drained), start)
}

// serviceControl drains pending control requests at a session pause
// point. It reports whether the engine must stop.
func (s *Server) serviceControl(j *Job, sess *fabric.Session) (stop bool) {
	for {
		select {
		case req := <-j.ctl:
			switch req.kind {
			case ctlCancel:
				s.setJobState(j, stateCanceled, "")
				req.reply <- ctlReply{}
				return true
			case ctlCheckpoint, ctlSuspend:
				data, err := encodeRunningCheckpoint(j.id, j.specJSON, sess)
				req.reply <- ctlReply{data: data, err: err}
				if req.kind == ctlSuspend && err == nil {
					s.setJobState(j, stateSuspended, "")
					return true
				}
			}
		default:
			return false
		}
	}
}

// serviceDrainControl handles control requests during the drain phase,
// where the session timeline is complete and only cancellation applies.
func (s *Server) serviceDrainControl(j *Job) (stop bool) {
	for {
		select {
		case req := <-j.ctl:
			switch req.kind {
			case ctlCancel:
				s.setJobState(j, stateCanceled, "")
				req.reply <- ctlReply{}
				return true
			default:
				req.reply <- ctlReply{err: errDraining}
			}
		default:
			return false
		}
	}
}

// engineExit releases the control channel: every queued (or arriving)
// request is answered with an error, then ctlDone closes so blocked
// senders fall through to their ctlDone case.
func (s *Server) engineExit(j *Job) {
	for {
		select {
		case req := <-j.ctl:
			req.reply <- ctlReply{err: errNotRunning}
		default:
			close(j.ctlDone)
			return
		}
	}
}

// publishProgress snapshots engine progress into the job under the
// server lock, so scrapes and status reads never touch live state.
// slotsRun counts only slots this engine instance advanced (a restored
// job does not re-claim its pre-checkpoint slots).
func (s *Server) publishProgress(j *Job, sess *fabric.Session, start time.Time, startSlot uint64) {
	m := sess.Metrics()
	lat := &m.LatencySlots
	n := uint64(lat.N())
	var p50, p99 float64
	if n > 0 {
		p50 = float64(lat.Quantile(0.5))
		p99 = float64(lat.P99())
	}
	slot := sess.Slot()
	s.mu.Lock()
	prev := j.slotsRun
	j.slot = slot
	j.offered = m.Offered
	j.delivered = m.Delivered
	j.latN, j.latP50, j.latP99 = n, p50, p99
	j.slotsRun = slot - startSlot
	j.runSeconds = time.Since(start).Seconds()
	s.slotsTotal += j.slotsRun - prev
	s.mu.Unlock()
}

// status renders the job's wire status; callers hold the server lock.
func (j *Job) statusLocked() Status {
	return Status{
		ID: j.id, Name: j.spec.Name, State: j.state, Error: j.err,
		Slot: j.slot, EndSlot: j.endSlot,
		Offered: j.offered, Delivered: j.delivered,
		LatencyN: j.latN, P50: j.latP50, P99: j.latP99,
	}
}
