package fc

import (
	"testing"
	"testing/quick"
)

// returnLoop models a credit-return loop around one counter: the credit
// of a freed downstream slot lands rtt ticks later. In the program the
// fabric's credit wire is that loop; the model lets these tests state the
// paper's sizing claims about BufferFor on a single counter.
type returnLoop struct {
	c *Credits
	// returning[i] credits land i+1 tick calls from now.
	returning []int
	pos       int
}

func newReturnLoop(t *testing.T, initial, rtt int) *returnLoop {
	t.Helper()
	c, err := NewCredits(initial)
	if err != nil {
		t.Fatal(err)
	}
	return &returnLoop{c: c, returning: make([]int, rtt)}
}

// release queues one credit for return after the loop RTT.
func (l *returnLoop) release() {
	l.returning[(l.pos+len(l.returning)-1)%len(l.returning)]++
}

// tick advances one packet cycle, landing the credits due now.
func (l *returnLoop) tick() {
	for ; l.returning[l.pos] > 0; l.returning[l.pos]-- {
		l.c.LandRefilled()
	}
	l.pos = (l.pos + 1) % len(l.returning)
}

// inFlight reports credits still travelling back.
func (l *returnLoop) inFlight() int {
	total := 0
	for _, v := range l.returning {
		total += v
	}
	return total
}

func TestCreditsBasics(t *testing.T) {
	c, err := NewCredits(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.avail != 3 || !c.CanSend() {
		t.Errorf("initial credits %d", c.avail)
	}
	for i := 0; i < 3; i++ {
		if !c.Consume() {
			t.Fatalf("consume %d refused", i)
		}
	}
	if c.Consume() {
		t.Error("consume beyond credits succeeded")
	}
	if c.Shortfalls != 1 {
		t.Errorf("shortfalls %d", c.Shortfalls)
	}
	if ok, emptied := c.ConsumeEmptied(); ok || emptied || c.Shortfalls != 2 {
		t.Errorf("ConsumeEmptied on an empty counter = %v, %v (shortfalls %d)", ok, emptied, c.Shortfalls)
	}
	if !c.LandRefilled() || c.LandRefilled() || c.avail != 2 {
		t.Errorf("LandRefilled must report only the empty-to-usable edge; avail %d", c.avail)
	}
	if ok, emptied := c.ConsumeEmptied(); !ok || emptied {
		t.Errorf("ConsumeEmptied with 2 credits = %v, %v", ok, emptied)
	}
	if ok, emptied := c.ConsumeEmptied(); !ok || !emptied {
		t.Errorf("ConsumeEmptied of the last credit = %v, %v", ok, emptied)
	}
}

func TestCreditsReturnDelay(t *testing.T) {
	l := newReturnLoop(t, 1, 3)
	l.c.Consume()
	l.release()
	if l.inFlight() != 1 {
		t.Errorf("in flight %d", l.inFlight())
	}
	// The credit must land exactly after 3 ticks.
	for i := 0; i < 2; i++ {
		l.tick()
		if l.c.CanSend() {
			t.Fatalf("credit landed early at tick %d", i+1)
		}
	}
	l.tick()
	if l.c.avail != 1 {
		t.Errorf("credit not landed after RTT: %d", l.c.avail)
	}
}

func TestCreditsSustainFullRateWhenSizedByRTT(t *testing.T) {
	// The paper's claim: deterministic RTT -> exact buffer sizing. With
	// initial credits = RTT, a sender can launch one cell every tick
	// forever (downstream freeing each cell on arrival).
	const rtt = 5
	l := newReturnLoop(t, BufferFor(rtt, 0), rtt)
	sent := 0
	for tick := 0; tick < 1000; tick++ {
		if l.c.Consume() {
			sent++
			l.release() // downstream consumes and frees immediately
		}
		l.tick()
	}
	if sent < 1000 {
		t.Errorf("sent %d of 1000 with RTT-sized credits; full rate requires 1000", sent)
	}
}

func TestCreditsUndersizedStarve(t *testing.T) {
	// With fewer credits than the RTT the link cannot sustain full rate.
	const rtt = 6
	l := newReturnLoop(t, rtt/2, rtt)
	sent := 0
	for tick := 0; tick < 1000; tick++ {
		if l.c.Consume() {
			sent++
			l.release()
		}
		l.tick()
	}
	if sent > 600 {
		t.Errorf("undersized credits sustained %d/1000; expected starvation", sent)
	}
}

func TestCreditsConservationProperty(t *testing.T) {
	// available + inFlight is invariant under release/tick and only
	// Consume decreases it.
	f := func(ops []uint8) bool {
		l := &returnLoop{c: &Credits{avail: 4}, returning: make([]int, 3)}
		outstanding := 0 // consumed but not yet released
		for _, op := range ops {
			total := l.c.avail + l.inFlight()
			switch op % 3 {
			case 0:
				if l.c.Consume() {
					outstanding++
					if l.c.avail+l.inFlight() != total-1 {
						return false
					}
				}
			case 1:
				if outstanding > 0 {
					l.release()
					outstanding--
					if l.c.avail+l.inFlight() != total+1 {
						return false
					}
				}
			case 2:
				l.tick()
				if l.c.avail+l.inFlight() != total {
					return false
				}
			}
			if l.c.avail+l.inFlight()+outstanding != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewCreditsValidation(t *testing.T) {
	if _, err := NewCredits(-1); err == nil {
		t.Error("negative credits accepted")
	}
	if c, err := NewCredits(0); err != nil || c == nil || c.CanSend() {
		t.Errorf("empty counter: %v, %v", c, err)
	}
}

func TestBufferFor(t *testing.T) {
	if got := BufferFor(10, 2); got != 12 {
		t.Errorf("BufferFor(10,2) = %d", got)
	}
	if got := BufferFor(0, -5); got != 1 {
		t.Errorf("degenerate BufferFor = %d", got)
	}
}

func TestLoopRTT(t *testing.T) {
	// 5-slot cable, 1-slot scheduler: down 5 + back 5 + sched 1 + 1.
	if got := LoopRTT(5, 1); got != 12 {
		t.Errorf("LoopRTT(5,1) = %d", got)
	}
	if got := LoopRTT(-1, -1); got != 1 {
		t.Errorf("degenerate LoopRTT = %d", got)
	}
}
