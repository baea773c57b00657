package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
