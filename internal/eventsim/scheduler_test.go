package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, sec := range []float64{3, 1, 2, 0.5, 2.5} {
		s.At(At(sec), "e", func(now Time) { got = append(got, now) })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if s.Now() != At(3) {
		t.Fatalf("final clock %v, want 3s", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(At(1), "same", func(Time) { order = append(order, i) })
	}
	s.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(At(1), "x", func(Time) {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(At(0.5), "past", func(Time) {})
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(At(1), "x", func(Time) { fired = true })
	s.Cancel(e)
	s.Cancel(e)       // double cancel is a no-op
	s.Cancel(Timer{}) // zero handle is a no-op
	s.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestSchedulerCancelFromCallback(t *testing.T) {
	s := NewScheduler()
	fired := false
	var victim Timer
	s.At(At(1), "killer", func(Time) { s.Cancel(victim) })
	victim = s.At(At(2), "victim", func(Time) { fired = true })
	s.RunUntilIdle()
	if fired {
		t.Fatal("victim fired despite cancellation from earlier event")
	}
}

func TestSchedulerHorizon(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(At(float64(i)), "e", func(Time) { count++ })
	}
	if err := s.Run(At(5)); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("fired %d events before horizon, want 5", count)
	}
	if s.Now() != At(5) {
		t.Fatalf("clock %v, want horizon 5s", s.Now())
	}
	if s.Len() != 5 {
		t.Fatalf("%d events pending, want 5", s.Len())
	}
}

func TestSchedulerHorizonAdvancesIdleClock(t *testing.T) {
	s := NewScheduler()
	if err := s.Run(At(7)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != At(7) {
		t.Fatalf("idle run left clock at %v, want 7s", s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(At(float64(i)), "e", func(Time) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	if err := s.RunUntilIdle(); err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("fired %d events, want 3", count)
	}
}

func TestSchedulerAfterAndAdvance(t *testing.T) {
	s := NewScheduler()
	s.After(2*time.Second, "later", func(Time) {})
	s.Advance(time.Second)
	if s.Now() != At(1) {
		t.Fatalf("clock %v after Advance, want 1s", s.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Advance over a pending event did not panic")
		}
	}()
	s.Advance(5 * time.Second)
}

func TestSchedulerReentrantScheduling(t *testing.T) {
	// Events scheduled from inside callbacks at the current instant run in
	// the same pass, after already-queued same-instant events.
	s := NewScheduler()
	var order []string
	s.At(At(1), "a", func(now Time) {
		order = append(order, "a")
		s.At(now, "c", func(Time) { order = append(order, "c") })
	})
	s.At(At(1), "b", func(Time) { order = append(order, "b") })
	s.RunUntilIdle()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	s.Ticker(time.Second, "tick", func(now Time) bool {
		ticks = append(ticks, now)
		return len(ticks) < 4
	})
	s.RunUntilIdle()
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4", len(ticks))
	}
	for i, tk := range ticks {
		if want := At(float64(i + 1)); tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	stop := s.Ticker(time.Second, "tick", func(Time) bool { n++; return true })
	s.At(At(2.5), "stopper", func(Time) { stop() })
	if err := s.Run(At(10)); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	s.Ticker(0, "bad", func(Time) bool { return true })
}

// Property: for any batch of scheduled offsets, firing order is a stable
// sort by time.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, off := range offsets {
			i := i
			at := Time(time.Duration(off) * time.Millisecond)
			s.At(at, "p", func(now Time) { fired = append(fired, rec{now, i}) })
		}
		s.RunUntilIdle()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].idx < fired[i-1].idx {
				return false // FIFO violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleTimerDoesNotCancelRecycledEvent(t *testing.T) {
	// Events are pooled: after a timer's event fires, the Event object may
	// be reissued for unrelated work. A stale handle must not cancel it.
	s := NewScheduler()
	first := s.At(At(1), "first", func(Time) {})
	s.RunUntilIdle() // first fires; its Event returns to the pool
	fired := false
	s.At(At(2), "second", func(Time) { fired = true })
	s.Cancel(first) // stale: must be a no-op even if the Event was recycled
	s.RunUntilIdle()
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
	if !first.Cancelled() {
		t.Fatal("fired timer does not report cancelled")
	}
}

func TestAtArg(t *testing.T) {
	s := NewScheduler()
	got := 0
	bump := func(_ Time, arg any) { *arg.(*int) += 2 }
	s.AtArg(At(1), "arg", bump, &got)
	s.AfterArg(2*time.Second, "arg", bump, &got)
	s.RunUntilIdle()
	if got != 4 {
		t.Fatalf("arg callbacks produced %d, want 4", got)
	}
}

func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	// Once the pool is warm, a schedule/fire cycle must not allocate.
	s := NewScheduler()
	var tick func(now Time)
	n := 0
	tick = func(now Time) {
		if n++; n < 100 {
			s.After(time.Millisecond, "tick", tick)
		}
	}
	s.After(time.Millisecond, "tick", tick)
	s.Step() // warm the pool
	allocs := testing.AllocsPerRun(50, func() { s.Step() })
	if allocs > 0 {
		t.Fatalf("steady-state Step allocates %.1f times per event, want 0", allocs)
	}
}

func TestTimeHelpers(t *testing.T) {
	a := At(1.5)
	b := a.Add(500 * time.Millisecond)
	if b != At(2) {
		t.Fatalf("Add: %v", b)
	}
	if d := b.Sub(a); d != 500*time.Millisecond {
		t.Fatalf("Sub: %v", d)
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
	if a.Seconds() != 1.5 {
		t.Fatalf("Seconds: %v", a.Seconds())
	}
	if got := Since(b, a); got != 500*time.Millisecond {
		t.Fatalf("Since: %v", got)
	}
	if FixedClock(a).Now() != a {
		t.Fatal("FixedClock")
	}
}

func TestCheckNonNegative(t *testing.T) {
	if CheckNonNegative(time.Second) != time.Second {
		t.Fatal("positive duration altered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	CheckNonNegative(-time.Second)
}

func TestSchedulerFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, "e", func(Time) {})
	}
	s.RunUntilIdle()
	if s.Fired() != 7 {
		t.Fatalf("Fired()=%d, want 7", s.Fired())
	}
}

func TestEventAccessors(t *testing.T) {
	s := NewScheduler()
	e := s.At(At(3), "named", func(Time) {})
	if e.When() != At(3) {
		t.Fatalf("When=%v", e.When())
	}
	if e.Name() != "named" {
		t.Fatalf("Name=%q", e.Name())
	}
	if e.Cancelled() {
		t.Fatal("fresh event reports cancelled")
	}
}

func TestHeapRandomCancel(t *testing.T) {
	// Exercise push/pop/remove on the 4-ary heap with random data to cover
	// the slice bookkeeping (index maintenance on removal).
	r := rand.New(rand.NewSource(1))
	s := NewScheduler()
	events := make([]Timer, 0, 64)
	for i := 0; i < 64; i++ {
		e := s.At(Time(time.Duration(r.Intn(1000))*time.Millisecond), "h", func(Time) {})
		events = append(events, e)
	}
	// Cancel a random half; indices must stay consistent.
	for _, i := range r.Perm(64)[:32] {
		s.Cancel(events[i])
	}
	if s.Len() != 32 {
		t.Fatalf("Len=%d after cancelling half, want 32", s.Len())
	}
	s.RunUntilIdle()
	if s.Len() != 0 {
		t.Fatalf("queue not drained: %d", s.Len())
	}
}

// TestSchedulerInterrupt exercises the cooperative-cancellation seam: an
// interrupt poll that trips mid-run aborts with ErrInterrupted after at
// most interruptStride further events, leaving the rest of the queue
// intact, and a cleared poll lets Run resume where it left off.
func TestSchedulerInterrupt(t *testing.T) {
	s := NewScheduler()
	const total = 3 * interruptStride
	fired := 0
	for i := 0; i < total; i++ {
		s.At(At(float64(i)), "e", func(now Time) { fired++ })
	}
	tripAt := interruptStride / 2
	s.SetInterrupt(func() bool { return fired > tripAt })
	if err := s.RunUntilIdle(); err != ErrInterrupted {
		t.Fatalf("Run returned %v, want ErrInterrupted", err)
	}
	if fired <= tripAt || fired > tripAt+interruptStride {
		t.Fatalf("interrupt after %d events, want within one stride past %d", fired, tripAt)
	}
	if s.Len() != total-fired {
		t.Fatalf("pending queue %d, want %d", s.Len(), total-fired)
	}
	s.SetInterrupt(nil)
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired != total {
		t.Fatalf("resumed run fired %d, want %d", fired, total)
	}
}

// TestSchedulerResetDrainsPending pins Reset's drain contract: every
// pending event is surfaced to the drain callback exactly once, with its
// name and argument, and the scheduler comes back empty at the epoch.
func TestSchedulerResetDrainsPending(t *testing.T) {
	s := NewScheduler()
	payload := &struct{ n int }{7}
	s.AtArg(Time(time.Millisecond), "drainme", func(Time, any) {}, payload)
	s.At(Time(2*time.Second), "faraway", func(Time) {})
	var drained []string
	var gotArg any
	s.Reset(func(name string, arg any) {
		drained = append(drained, name)
		if arg != nil {
			gotArg = arg
		}
	})
	if len(drained) != 2 {
		t.Fatalf("drained %d events, want 2", len(drained))
	}
	if gotArg != payload {
		t.Fatal("drain did not surface the event argument")
	}
	if s.Len() != 0 || s.Now() != 0 || s.Scheduled() != 0 || s.Fired() != 0 {
		t.Fatalf("Reset left state behind: len=%d now=%v sched=%d fired=%d",
			s.Len(), s.Now(), s.Scheduled(), s.Fired())
	}
}

// TestSchedulerPeakQueueAndReset pins the queue high-water mark: it counts
// resident events, Reset zeroes it, and the reset scheduler still orders
// correctly from the epoch.
func TestSchedulerPeakQueueAndReset(t *testing.T) {
	s := NewScheduler()
	for i := 1; i <= 10; i++ {
		s.After(Duration(i)*time.Millisecond, "e", func(Time) {})
	}
	if s.PeakQueue() != 10 {
		t.Fatalf("PeakQueue %d with 10 resident events, want 10", s.PeakQueue())
	}
	s.RunUntilIdle()
	s.Reset(nil)
	if s.PeakQueue() != 0 {
		t.Fatalf("PeakQueue %d survives Reset", s.PeakQueue())
	}
	var got []Time
	s.After(2*time.Millisecond, "b", func(now Time) { got = append(got, now) })
	s.After(time.Millisecond, "a", func(now Time) { got = append(got, now) })
	s.RunUntilIdle()
	if len(got) != 2 || got[0] != Time(time.Millisecond) || got[1] != Time(2*time.Millisecond) {
		t.Fatalf("post-Reset firing order wrong: %v", got)
	}
}

// TestBatchedDispatchStopResumes pins the Stop-mid-batch contract: the
// unfired remainder of a same-instant batch is requeued with sequence
// numbers intact, so a subsequent Run resumes in the exact order the batch
// would have fired.
func TestBatchedDispatchStopResumes(t *testing.T) {
	s := NewScheduler()
	var got []int
	at := Time(time.Millisecond)
	for i := 0; i < 5; i++ {
		i := i
		s.At(at, "batch", func(Time) {
			got = append(got, i)
			if i == 1 {
				s.Stop()
			}
		})
	}
	if err := s.Run(0); err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("resume Run returned %v", err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestCancelSiblingInDispatchBatch pins cancellation of an event already
// popped into the current same-instant batch: it is neutralised in place,
// never fires, and is recycled rather than requeued when Stop cuts the
// batch short — whether it sits at the cut or after it. Either way it is
// not counted: Fired equals the callbacks that actually ran.
func TestCancelSiblingInDispatchBatch(t *testing.T) {
	s := NewScheduler()
	var got []string
	var timers [4]Timer
	at := Time(time.Millisecond)
	for i, name := range []string{"a", "b", "c", "d"} {
		name := name
		timers[i] = s.At(at, name, func(Time) {
			got = append(got, name)
			if name == "a" {
				s.Cancel(timers[1]) // the next event in the batch: the Stop cut lands on it
				s.Cancel(timers[3]) // further down the batch
				s.Stop()
			}
		})
	}
	if err := s.Run(0); err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if !timers[1].Cancelled() || !timers[3].Cancelled() {
		t.Fatal("in-flight cancellation left a live handle")
	}
	if s.Len() != 1 {
		t.Fatalf("%d events requeued after Stop, want only the live sibling", s.Len())
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("resume Run returned %v", err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("fired %v, want [a c]", got)
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired() = %d after 2 callbacks ran", s.Fired())
	}

	// Without Stop the batch runs on and simply skips the cancelled sibling.
	got = got[:0]
	for i, name := range []string{"a", "b", "c"} {
		name := name
		timers[i] = s.At(s.Now(), name, func(Time) {
			got = append(got, name)
			if name == "a" {
				s.Cancel(timers[1])
			}
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "c" || s.Len() != 0 {
		t.Fatalf("fired %v with %d pending, want [a c] and none", got, s.Len())
	}
	if s.Fired() != 4 {
		t.Fatalf("Fired() = %d after 4 callbacks ran across both batches", s.Fired())
	}
}
