package sched

// Checkpoint round-trip suite: every scheduler, checkpointed mid-run and
// restored into a freshly constructed instance, must continue producing
// bit-identical matchings (and board commitments) to its uninterrupted
// twin over a seeded random demand evolution.

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// copyBoard deep-copies the board so the restored scheduler resumes
// against exactly the demand state the original saw at the checkpoint.
func copyBoard(b *MatrixBoard) *MatrixBoard {
	c := *b
	c.recv = slices.Clone(b.recv)
	c.queued = slices.Clone(b.queued)
	c.committed = slices.Clone(b.committed)
	c.rowBits = slices.Clone(b.rowBits)
	c.colBits = slices.Clone(b.colBits)
	return &c
}

// saveSched checkpoints a scheduler to text.
func saveSched(t *testing.T, s StateCodec) string {
	t.Helper()
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	s.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.String()
}

// loadSched restores a scheduler from text.
func loadSched(t *testing.T, s StateCodec, text string) {
	t.Helper()
	d, err := ckpt.NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	s.LoadState(d)
	if err := d.Close(); err != nil {
		t.Fatalf("load: %v", err)
	}
}

func TestSchedulerCheckpointRoundTrip(t *testing.T) {
	const n = 8
	builders := map[string]func() Scheduler{
		"flppr":           func() Scheduler { return NewFLPPR(n, 3) },
		"islip":           func() Scheduler { return NewISLIP(n, 2) },
		"pim":             func() Scheduler { return NewPIM(n, 2, 99) },
		"lqf":             func() Scheduler { return NewLQF(n) },
		"pipelined-islip": func() Scheduler { return NewPipelinedISLIP(n, 3) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			orig := build()
			board := NewMatrixBoard(n, 1)
			arrivals := sim.NewRNG(1234)
			m := NewMatching(n)
			for tick := uint64(0); tick < 200; tick++ {
				arrive(board, arrivals)
				orig.TickInto(tick, board, &m)
				board.Execute(m)
			}

			// Checkpoint mid-run; twin restores into a fresh instance
			// against a copied board and a forked arrival stream state.
			text := saveSched(t, orig.(StateCodec))
			twin := build()
			loadSched(t, twin.(StateCodec), text)
			twinBoard := copyBoard(board)
			twinArrivals := sim.NewRNG(1)
			if err := twinArrivals.Restore(arrivals.State()); err != nil {
				t.Fatal(err)
			}

			tm := NewMatching(n)
			for tick := uint64(200); tick < 400; tick++ {
				arrive(board, arrivals)
				arrive(twinBoard, twinArrivals)
				orig.TickInto(tick, board, &m)
				twin.TickInto(tick, twinBoard, &tm)
				if !matchingsEqual(m, tm) {
					t.Fatalf("tick %d: matchings diverged: %v vs %v", tick, m.Out, tm.Out)
				}
				board.Execute(m)
				twinBoard.Execute(tm)
				if !boardsEqual(board, twinBoard) {
					t.Fatalf("tick %d: board state diverged after restore", tick)
				}
			}
		})
	}
}

func TestSchedulerCheckpointShapeMismatch(t *testing.T) {
	text := saveSched(t, NewISLIP(8, 2))
	d, err := ckpt.NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if NewISLIP(16, 2).LoadState(d); d.Err() == nil || !strings.Contains(d.Err().Error(), "line 3: sched: islip checkpoint is 8-port/2-iter, live scheduler 16/2") {
		t.Fatalf("8-port checkpoint restored into 16-port scheduler: %v", d.Err())
	}

	text = saveSched(t, NewFLPPR(8, 3))
	d, err = ckpt.NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if NewFLPPR(8, 4).LoadState(d); d.Err() == nil || !strings.Contains(d.Err().Error(), "flppr checkpoint is 8x3-sub, live scheduler 8x4-sub") {
		t.Fatalf("3-sub FLPPR checkpoint restored into 4-sub scheduler: %v", d.Err())
	}
	// The shape is compared before the head is read, so a checkpoint
	// whose head is past the live sub-scheduler count still names the
	// shape.
	text = saveSched(t, NewFLPPR(8, 3))
	if !strings.Contains(text, "\nflppr 8 3 0\n") {
		t.Fatalf("fresh FLPPR checkpoint lacks its shape record:\n%s", text)
	}
	text = resealSched(strings.Replace(text, "flppr 8 3 0", "flppr 8 3 2", 1))
	d, err = ckpt.NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if NewFLPPR(8, 2).LoadState(d); d.Err() == nil || !strings.Contains(d.Err().Error(), "flppr checkpoint is 8x3-sub, live scheduler 8x2-sub") {
		t.Fatalf("3-sub FLPPR checkpoint with head 2 restored into 2-sub scheduler: %v", d.Err())
	}

	// A scheduler checkpoint of the wrong kind is rejected by its
	// section name.
	text = saveSched(t, NewLQF(8))
	d, err = ckpt.NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if NewISLIP(8, 2).LoadState(d); d.Err() == nil {
		t.Fatal("lqf checkpoint restored into islip")
	}
}

// resealSched recomputes a checkpoint's checksum trailer after an edit.
func resealSched(text string) string {
	body := text[:strings.LastIndex(text, "checksum ")]
	h := fnv.New64a()
	_, _ = h.Write([]byte(body))
	return fmt.Sprintf("%schecksum %016x\n", body, h.Sum64())
}
