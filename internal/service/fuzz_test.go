package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/traffic"
)

// sealJob wraps a checkpoint body in the header and the checksum
// trailer its bytes hash to, so a fuzzed edit reaches the record
// decoders instead of stopping at the checksum.
func sealJob(body []byte) []byte {
	text := append([]byte("osmosis-ckpt v2\n"), body...)
	h := fnv.New64a()
	_, _ = h.Write(text)
	return fmt.Appendf(text, "checksum %016x\n", h.Sum64())
}

// jobBody strips a checkpoint's header and checksum trailer.
func jobBody(snap []byte) []byte {
	return snap[bytes.IndexByte(snap, '\n')+1 : bytes.LastIndex(snap, []byte("checksum "))]
}

// FuzzParseJobCheckpoint feeds arbitrary bytes to the whole osmosisd job
// checkpoint parser that /v1/restore and the start-up restore use: the
// framing, the embedded job spec and, for running jobs, a dry-run
// restore of the session onto a freshly built engine. With seal set the
// input is a checkpoint body, sealed under a valid header and checksum
// so mutations reach the record decoders; unsealed, it is a whole file,
// which keeps the checksum refusal covered. Each input is either
// rejected with an error or yields a header whose phase and spec passed
// validation, and nothing panics. Seeds: the golden running-job
// checkpoint and a queued-job checkpoint, sealed, with a flipped middle
// byte resealed, and as the corrupt restores of
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
		body := jobBody(snap)
		if !bytes.Equal(sealJob(body), snap) {
			f.Fatal("resealing an unedited checkpoint body changed it")
		}
		flippedBody := append([]byte(nil), body...)
		flippedBody[len(body)/2] ^= 1
		f.Add(body, true)
		f.Add(flippedBody, true)
		mid := len(snap) / 2
		flipped := append([]byte(nil), snap...)
		flipped[mid] ^= 1
		f.Add(snap, false)
		f.Add(flipped, false)
		f.Add(snap[:mid], false)
		f.Add([]byte(strings.Replace(string(snap), "osmosis-ckpt v2\n", "osmosis-ckpt v1\n", 1)), false)
	}
	f.Add([]byte("osmosis-ckpt v3\n"), false)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = sealJob(data)
		}
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
