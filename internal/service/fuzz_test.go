package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/traffic"
)

// FuzzParseJobCheckpoint feeds arbitrary bytes to the whole osmosisd job
// checkpoint parser that /v1/restore and the start-up restore use: the
// framing, the embedded job spec and, for running jobs, a dry-run
// restore of the session onto a freshly built engine. Each input is
// either rejected with an error or yields a header whose phase and spec
// passed validation, and nothing panics. Seeds: the golden running-job
// checkpoint, a queued-job checkpoint, and the corrupt restores of
// TestRejectsBadSubmissionsAndCorruptRestores (a flipped middle byte, a
// truncation, a future and a retired version).
func FuzzParseJobCheckpoint(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "job16_bimodal.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	spec := smallSpec("queued", 52)
	specJSON, err := spec.canonicalJSON()
	if err != nil {
		f.Fatal(err)
	}
	queued, err := encodeQueuedCheckpoint("j2", specJSON)
	if err != nil {
		f.Fatal(err)
	}
	for _, snap := range [][]byte{golden, queued} {
		mid := len(snap) / 2
		flipped := append([]byte(nil), snap...)
		flipped[mid] ^= 1
		f.Add(snap)
		f.Add(flipped)
		f.Add(snap[:mid])
		f.Add([]byte(strings.Replace(string(snap), "osmosis-ckpt v2\n", "osmosis-ckpt v1\n", 1)))
	}
	f.Add([]byte("osmosis-ckpt v3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseJobCheckpoint(data)
		if err != nil {
			return
		}
		if h == nil {
			t.Fatal("accepted checkpoint yielded no header")
		}
		if h.phase != phaseQueued && h.phase != phaseRunning {
			t.Fatalf("accepted checkpoint has phase %q", h.phase)
		}
		if err := h.spec.validate(); err != nil {
			t.Fatalf("accepted checkpoint carries an invalid spec: %v", err)
		}
	})
}

// FuzzJobSpec feeds arbitrary bytes to the job-spec path a /v1/jobs
// submission takes: strict JSON decoding, validate and canonicalJSON.
// Each input is either rejected with an error or round-trips: the
// canonical JSON decodes, validates and re-renders to the same bytes.
// Nothing panics, including buildEngine, which runs only on specs small
// enough to build in a fuzz execution: validate bounds neither the
// fabric size nor the link delay yet (ROADMAP item 3, admission).
// Seeds: every scheduler name, an unknown one, the sched_param spec of
// TestSchedParamRejected and an inline trace upload.
func FuzzJobSpec(f *testing.F) {
	spec := func(sched string) []byte {
		return []byte(`{"fabric":{"hosts":16,"radix":4,"scheduler":"` + sched + `"},"traffic":{"kind":"uniform","load":0.5},"measure_slots":100}`)
	}
	for _, name := range append([]string{"", "fifo"}, sched.Names...) {
		f.Add(spec(name))
	}
	f.Add([]byte(`{"fabric":{"hosts":16,"radix":4,"scheduler":"flppr","sched_param":1152921504606846976},"traffic":{"kind":"uniform","load":0.5},"measure_slots":100}`))
	var tr strings.Builder
	trace := traffic.Trace{N: 4, Slots: 4, Events: []traffic.TraceEvent{
		{Slot: 0, Port: 0, Dst: 1}, {Slot: 1, Port: 2, Dst: 3, Class: traffic.ClassControl}}}
	if err := trace.Write(&tr); err != nil {
		f.Fatal(err)
	}
	upload, err := json.Marshal(JobSpec{
		Fabric:       FabricSpec{Hosts: 4, Radix: 4},
		Traffic:      TrafficSpec{Kind: "trace", Trace: tr.String()},
		MeasureSlots: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(upload)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s JobSpec
		if unmarshalSpecStrict(data, &s) != nil || s.validate() != nil {
			return
		}
		canon, err := s.canonicalJSON()
		if err != nil {
			t.Fatalf("validated spec does not render: %v", err)
		}
		var again JobSpec
		if err := unmarshalSpecStrict(canon, &again); err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, canon)
		}
		if err := again.validate(); err != nil {
			t.Fatalf("canonical JSON does not validate: %v\n%s", err, canon)
		}
		if round, err := again.canonicalJSON(); err != nil || !bytes.Equal(round, canon) {
			t.Fatalf("canonical JSON does not round-trip (%v):\n%s\n%s", err, canon, round)
		}
		fs := s.Fabric
		if fs.Hosts <= 64 && fs.Radix <= 16 && fs.Levels <= 4 && fs.LinkDelaySlots <= 1024 {
			_, _, _ = s.buildEngine() // an error is a rejection; a panic fails the target
		}
	})
}
