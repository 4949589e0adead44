package clock

import (
	"testing"
	"time"
)

// TestFakeTimerFiresAtDeadline pins the Fake's timer contract: a timer
// fires when Advance reaches its deadline and not a nanosecond before,
// a stopped timer never fires, and a non-positive delay fires at once.
func TestFakeTimerFiresAtDeadline(t *testing.T) {
	start := time.Unix(100, 0)
	c := NewFake(start)
	tick, _ := c.Timer(50 * time.Millisecond)
	stopped, stop := c.Timer(10 * time.Millisecond)
	stop()
	stop() // idempotent
	if n := c.Waiters(); n != 1 {
		t.Fatalf("Waiters = %d after one stop, want 1", n)
	}
	c.Advance(49 * time.Millisecond)
	select {
	case <-tick:
		t.Fatal("timer fired before its deadline")
	default:
	}
	c.Advance(time.Millisecond)
	select {
	case at := <-tick:
		if want := start.Add(50 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("tick at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	select {
	case <-stopped:
		t.Fatal("stopped timer fired")
	default:
	}
	if n := c.Waiters(); n != 0 {
		t.Fatalf("Waiters = %d after all timers resolved, want 0", n)
	}
	now, _ := c.Timer(0)
	if at := <-now; !at.Equal(c.Now()) {
		t.Fatalf("zero-delay tick at %v, want now %v", at, c.Now())
	}
}
