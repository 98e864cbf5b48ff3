package main

import (
	"testing"
	"time"
)

// fakeHost is a host clock that moves only when the test says so.
type fakeHost struct{ now time.Duration }

func (f *fakeHost) clock() *schedClock {
	return &schedClock{host: func() time.Duration { return f.now }}
}

// evenRequests returns n requests due every gap, starting at gap.
func evenRequests(n int, gap time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{due: time.Duration(i+1) * gap, op: opGet, key: loadKey(uint64(i))}
	}
	return reqs
}

// TestOpenLoopStall replays a schedule with one synthetic migration stall
// and checks the three scheduler properties the benchmark relies on.
func TestOpenLoopStall(t *testing.T) {
	const (
		gap     = 10 * time.Millisecond
		service = 1 * time.Millisecond
		at      = 50 * time.Millisecond // migration due time
		stall   = 35 * time.Millisecond
	)
	host := &fakeHost{}
	clock := host.clock()
	reqs := evenRequests(12, gap)
	var order []int
	loop := newOpenLoop(clock, reqs, func(i int) error {
		order = append(order, i)
		host.now += service
		return nil
	})

	if err := loop.ServeBefore(at); err != nil {
		t.Fatal(err)
	}
	// Everything due before the migration is served before it starts.
	for i, r := range reqs {
		if served := i < loop.next; served != (r.due < at) {
			t.Fatalf("request %d (due %v): served=%v before the migration at %v", i, r.due, served, at)
		}
	}
	clock.SkipTo(at)
	if got := clock.Now(); got != at {
		t.Fatalf("clock at migration start = %v, want %v", got, at)
	}
	host.now += stall // the migration
	stallEnd := at + stall
	if err := loop.ServeBefore(time.Hour); err != nil {
		t.Fatal(err)
	}
	if !loop.Done() {
		t.Fatal("not every request was served")
	}

	for i, got := range order {
		if got != i {
			t.Fatalf("served order %v: request %d out of place", order, i)
		}
	}
	for i, r := range reqs {
		lat := time.Duration(loop.latency[i] * float64(time.Millisecond))
		switch {
		case r.due < at:
			// Idle gaps are skipped: an unstalled request costs its
			// service time alone.
			if d := lat - service; d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("request %d due %v before the stall: latency %v, want %v", i, r.due, lat, service)
			}
		case r.due < stallEnd:
			// Charged from when it was due, so it carries the rest of
			// the stall plus the backlog ahead of it.
			if lat < stallEnd-r.due+service {
				t.Errorf("request %d due %v during the stall: latency %v, want at least %v", i, r.due, lat, stallEnd-r.due+service)
			}
			if lag := time.Duration(loop.lag[i] * float64(time.Millisecond)); lag < stallEnd-r.due {
				t.Errorf("request %d due %v during the stall: generator lag %v, want at least %v", i, r.due, lag, stallEnd-r.due)
			}
		default:
			if lat > 3*service {
				t.Errorf("request %d due %v after the backlog drained: latency %v", i, r.due, lat)
			}
		}
	}
}

// TestServeDueDoesNotSkip checks the between-rounds path: it serves what is
// due, including what falls due meanwhile, and never jumps the clock.
func TestServeDueDoesNotSkip(t *testing.T) {
	host := &fakeHost{now: 25 * time.Millisecond}
	clock := host.clock()
	reqs := evenRequests(6, 10*time.Millisecond)
	loop := newOpenLoop(clock, reqs, func(int) error {
		host.now += 6 * time.Millisecond
		return nil
	})
	if err := loop.ServeDue(); err != nil {
		t.Fatal(err)
	}
	// Due at 10 and 20 ms; serving them reaches 37 ms, making the request
	// due at 30 ms due too, which reaches 43 ms: the one at 40 ms is due as
	// well, then 49 ms < 50 ms stops it.
	if loop.next != 4 {
		t.Fatalf("served %d requests, want 4", loop.next)
	}
	if clock.skipped != 0 {
		t.Fatalf("ServeDue skipped %v of schedule time", clock.skipped)
	}
}

func TestGenRequestsDeterministic(t *testing.T) {
	mix := kvMix{rate: 2000, setFrac: 0.5, keys: 100}
	a := genRequests(7, mix, time.Second)
	b := genRequests(7, mix, time.Second)
	c := genRequests(8, mix, time.Second)
	if len(a) != len(b) || len(a) < 1500 || len(a) > 2500 {
		t.Fatalf("got %d and %d requests for a 2000/s second", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two draws of one seed", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if k := (a[i].key - loadKey(0)) / 7; a[i].key < loadKey(0) || k >= 100 || loadKey(k) != a[i].key {
			t.Fatalf("request %d key %d is not a loaded key", i, a[i].key)
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Fatal("another seed drew the same stream")
	}
}
