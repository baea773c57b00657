package fc

// Checkpoint suite for the credit counter: a restored counter continues
// exactly like the original, and the record keeps its historic layout.

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

func saveCredits(t *testing.T, c *Credits) string {
	t.Helper()
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	c.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.String()
}

func loadCredits(t *testing.T, c *Credits, text string) error {
	t.Helper()
	d, err := ckpt.NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatalf("decoder: %v", err)
	}
	c.LoadState(d)
	return d.Close()
}

// TestCreditsDrainVsRestoreEquivalence: run a random credit workload,
// checkpoint it mid-run, and drive the original and a restored twin with
// the same continuation — every step must leave both counters equal.
func TestCreditsDrainVsRestoreEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5, 11} {
		orig, err := NewCredits(4)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed)
		step := func(c *Credits, op int) {
			if op == 0 {
				c.ConsumeEmptied()
			} else {
				c.LandRefilled()
			}
		}
		for i := 0; i < 200; i++ {
			step(orig, rng.Intn(2))
		}
		twin, err := NewCredits(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadCredits(t, twin, saveCredits(t, orig)); err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		for i := 0; i < 200; i++ {
			if *twin != *orig {
				t.Fatalf("seed %d step %d: restored counter %+v diverged from %+v", seed, i, *twin, *orig)
			}
			op := rng.Intn(2)
			step(orig, op)
			step(twin, op)
		}
	}
}

// TestCreditsCheckpointRejectsRTTMismatch pins the record layout and
// refuses a record of the old return-ring form that carries credits in
// flight or lost: this counter cannot land them on their slots.
func TestCreditsCheckpointRejectsRTTMismatch(t *testing.T) {
	c, _ := NewCredits(4)
	c.Consume()
	c.Consume()
	c.Consume()
	c.Consume()
	c.Consume()
	text := saveCredits(t, c)
	if !strings.Contains(text, "credits 0 1 0 1 0\n") {
		t.Fatalf("credits record changed layout:\n%s", text)
	}
	for name, put := range map[string]func(e *ckpt.Encoder){
		"longer ring": func(e *ckpt.Encoder) {
			e.Put("credits", ckpt.Int(4), ckpt.Uint(0), ckpt.Uint(0), ckpt.Int(3), ckpt.Int(0))
		},
		"return in flight": func(e *ckpt.Encoder) {
			e.Put("credits", ckpt.Int(3), ckpt.Uint(0), ckpt.Uint(0), ckpt.Int(1), ckpt.Int(1))
			e.Put("ret", ckpt.Int(0), ckpt.Int(1))
		},
		"lost credits": func(e *ckpt.Encoder) {
			e.Put("credits", ckpt.Int(3), ckpt.Uint(0), ckpt.Uint(1), ckpt.Int(1), ckpt.Int(0))
		},
	} {
		var buf strings.Builder
		e := ckpt.NewEncoder(&buf)
		put(e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		twin, _ := NewCredits(0)
		if err := loadCredits(t, twin, buf.String()); err == nil {
			t.Errorf("%s: checkpoint restored into a landed-credit counter", name)
		}
	}
}
