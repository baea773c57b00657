package fabric

// Forged-field sweep: every field of every record line of a session
// checkpoint is replaced in turn by a token the saving run never wrote,
// the checksum is resealed so the edit reaches the section decoders,
// and the result is restored onto a fresh engine. Each forged file must
// be refused, or restore to a session that saves back exactly the
// forged bytes: a restore that accepts a field and then re-saves
// something else has silently reinterpreted it (a class truncated to 8
// bits, a histogram re-sorted). Nothing may panic. The sweep runs over
// the golden checkpoint and over a snapshot of a pipelined-iSLIP fabric
// under bursty traffic taken here, which between them populate every
// record kind a fabric session writes.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
	"repro/internal/traffic"
)

// forgeTarget is a session checkpoint and the engine it restores onto.
type forgeTarget struct {
	text  string
	cfg   Config
	tcfg  traffic.Config
	lines []forgeLine // the record lines of text
}

// forgeLine locates one record line in a checkpoint's text.
type forgeLine struct {
	start, end int // byte offsets of the line, newline excluded
	fields     int // field tokens after the key
}

// newForgeTarget indexes the record lines of a session checkpoint.
func newForgeTarget(text string, cfg Config, tcfg traffic.Config) *forgeTarget {
	ft := &forgeTarget{text: text, cfg: cfg, tcfg: tcfg}
	trailer := strings.LastIndex(text, "checksum ")
	for start := strings.IndexByte(text, '\n') + 1; start < trailer; {
		end := start + strings.IndexByte(text[start:], '\n')
		key, rest, found := strings.Cut(text[start:end], " ")
		if found && key != "begin" && key != "end" {
			ft.lines = append(ft.lines, forgeLine{start: start, end: end, fields: strings.Count(rest, " ") + 1})
		}
		start = end + 1
	}
	return ft
}

// forge returns the checkpoint with field field (0-based, after the
// key) of record line line replaced by tok, under a resealed checksum.
func (ft *forgeTarget) forge(line, field int, tok string) string {
	l := ft.lines[line]
	toks := strings.Split(ft.text[l.start:l.end], " ")
	toks[field+1] = tok
	body := ft.text[:l.start] + strings.Join(toks, " ") + ft.text[l.end:strings.LastIndex(ft.text, "checksum ")]
	h := fnv.New64a()
	_, _ = h.Write([]byte(body))
	return fmt.Sprintf("%schecksum %016x\n", body, h.Sum64())
}

// check restores forged onto a fresh engine and requires a refusal or a
// byte-identical re-save; a panic in either step fails the test. It
// reports whether the forged file was refused.
func (ft *forgeTarget) check(t *testing.T, what, forged string) (refused bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", what, r)
		}
	}()
	f, err := New(ft.cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := traffic.Build(ft.tcfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ResumeSession(f, gens, strings.NewReader(forged))
	if err != nil {
		return true
	}
	var out bytes.Buffer
	if err := s.Save(&out); err != nil {
		t.Errorf("%s: restored, but the session does not save: %v", what, err)
	} else if out.String() != forged {
		t.Errorf("%s: restored, but saves back different bytes", what)
	}
	return false
}

// goldenForgeTarget indexes testdata/xgft16_bimodal.ckpt.
func goldenForgeTarget(tb testing.TB) *forgeTarget {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", goldenCkptFile))
	if err != nil {
		tb.Fatal(err)
	}
	cfg, tcfg := goldenCkptConfig(tb)
	return newForgeTarget(string(data), cfg, tcfg)
}

// burstyForgeTarget snapshots an 8-host radix-4 pipelined-iSLIP fabric
// with egress buffers under bursty traffic at load 0.8, mid-measurement.
func burstyForgeTarget(t *testing.T) *forgeTarget {
	t.Helper()
	cfg := Config{Network: testNet(8, 4), Receivers: 2, LinkDelaySlots: 3, EgressBuffered: true,
		NewScheduler: func() sched.Scheduler { return sched.NewPipelinedISLIP(4, 2) }}
	tcfg := traffic.Config{Kind: traffic.KindBursty, N: 8, Load: 0.8, MeanBurst: 8, Seed: 5}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSession(f, buildGens(t, tcfg), 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(131); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	return newForgeTarget(snap.String(), cfg, tcfg)
}

// forgedToken is what the sweep writes into each field: 2^22, a
// plausible-looking count that is past every port, class and queue
// bound of these fabrics.
const forgedToken = "4194304"

func TestForgedFieldSweep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(t *testing.T) *forgeTarget
	}{
		{"golden", func(t *testing.T) *forgeTarget { return goldenForgeTarget(t) }},
		{"bursty-pislip", burstyForgeTarget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := tc.target(t)
			if ft.check(t, "unforged", ft.text) {
				t.Fatal("the unforged checkpoint is refused")
			}
			var fields, refused atomic.Int64
			t.Cleanup(func() {
				t.Logf("%d record lines, %d fields: %d forged files refused, %d restored and saved back unchanged",
					len(ft.lines), fields.Load(), refused.Load(), fields.Load()-refused.Load())
			})
			// One parallel subtest per block of record lines.
			const block = 64
			for lo := 0; lo < len(ft.lines); lo += block {
				hi := min(lo+block, len(ft.lines))
				t.Run(fmt.Sprintf("lines-%d-%d", lo, hi), func(t *testing.T) {
					t.Parallel()
					for i := lo; i < hi; i++ {
						l := ft.lines[i]
						for field := 0; field < l.fields; field++ {
							what := fmt.Sprintf("%q field %d", ft.text[l.start:l.end], field+1)
							fields.Add(1)
							if ft.check(t, what, ft.forge(i, field, forgedToken)) {
								refused.Add(1)
							}
						}
					}
				})
			}
		})
	}
}

// FuzzForgedField runs the sweep's check with any token in any field of
// the golden checkpoint. The seeds are edits in range that a restore
// once accepted and then saved back in another order or without the
// record: keyed runs must come in the order the encoder writes them.
func FuzzForgedField(f *testing.F) {
	ft := goldenForgeTarget(f)
	for _, seed := range []struct {
		line, field int
		tok         string
	}{
		{66, 0, "4"},         // "hop 1 447" -> hop 4 before hop 3
		{569, 1, "0"},        // "comm 5 1" -> a zero commitment, which is never written
		{585, 1, "4"},        // "q 0 6 2" -> queue (0,4) after queue (0,5)
		{1200, 2, "0"},       // "w 215 0 6" -> port 0 after port 5 on the same slot and node
		{1238, 2, "5"},       // "cw 213 0 6 1" -> the key of the credit return before it
		{0, 0, "-1"},         // "run 0 50 300 0" -> a negative base slot
		{40, 1, forgedToken}, // "bin 37 2" -> counts past the moments' n
	} {
		f.Add(seed.line, seed.field, seed.tok)
	}
	f.Fuzz(func(t *testing.T, line, field int, tok string) {
		if line < 0 || field < 0 || tok == "" || strings.ContainsAny(tok, " \t\r\n") {
			return
		}
		line %= len(ft.lines)
		field %= ft.lines[line].fields
		ft.check(t, fmt.Sprintf("line %d field %d = %q", line, field, tok), ft.forge(line, field, tok))
	})
}
