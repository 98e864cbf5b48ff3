package main

import (
	"math/rand"
	"time"
)

// schedClock is the open-loop generator's clock: host time since the
// measured phase began plus every idle gap the generator skipped. The
// simulated server has no timers, so jumping over a gap in which nothing
// is due changes nothing it computes; requests are still timed from when
// they were due on this clock, so a stall charges every request that fell
// due during it.
type schedClock struct {
	host    func() time.Duration
	skipped time.Duration
}

func newSchedClock() *schedClock {
	start := time.Now()
	return &schedClock{host: func() time.Duration { return time.Since(start) }}
}

// Now is the current schedule time.
func (c *schedClock) Now() time.Duration { return c.host() + c.skipped }

// SkipTo moves the clock forward to t if it is behind; a clock already past
// t (the generator is running late) is left alone.
func (c *schedClock) SkipTo(t time.Duration) {
	if now := c.Now(); t > now {
		c.skipped += t - now
	}
}

// request is one generated operation.
type request struct {
	due time.Duration
	op  uint64
	key uint64
	val uint64
}

// openLoop replays a request schedule against a server one request at a
// time, in due order, and records each request's latency (completion minus
// due) and generator lag (push minus due).
type openLoop struct {
	clock *schedClock
	reqs  []request
	next  int
	// serve runs request i to completion on whatever process currently
	// holds the server.
	serve func(i int) error

	latency []float64 // ms, indexed by request
	lag     []float64 // ms, indexed by request
}

func newOpenLoop(clock *schedClock, reqs []request, serve func(i int) error) *openLoop {
	return &openLoop{
		clock: clock, reqs: reqs, serve: serve,
		latency: make([]float64, len(reqs)),
		lag:     make([]float64, len(reqs)),
	}
}

func (l *openLoop) serveNext() error {
	i := l.next
	l.next++
	pushed := l.clock.Now()
	if err := l.serve(i); err != nil {
		return err
	}
	done := l.clock.Now()
	l.lag[i] = ms(pushed - l.reqs[i].due)
	l.latency[i] = ms(done - l.reqs[i].due)
	return nil
}

// ServeBefore serves, in order, every request due before t, skipping the
// idle gap in front of each one that is not yet due.
func (l *openLoop) ServeBefore(t time.Duration) error {
	for l.next < len(l.reqs) && l.reqs[l.next].due < t {
		l.clock.SkipTo(l.reqs[l.next].due)
		if err := l.serveNext(); err != nil {
			return err
		}
	}
	return nil
}

// ServeDue serves every request already due, including those that fall due
// while it serves, without skipping ahead: it is how traffic reaches a
// source between pre-copy rounds.
func (l *openLoop) ServeDue() error {
	for l.next < len(l.reqs) && l.reqs[l.next].due <= l.clock.Now() {
		if err := l.serveNext(); err != nil {
			return err
		}
	}
	return nil
}

// Done reports whether every request has been served.
func (l *openLoop) Done() bool { return l.next == len(l.reqs) }

// kvMix describes a rediska traffic stream.
type kvMix struct {
	rate    float64 // requests per second of schedule time
	setFrac float64 // share of SETs; the rest are GETs
	keys    int     // keys drawn uniformly from the bulk-loaded set
}

// genRequests draws a Poisson request stream over [0, window) from seed.
// Keys are always bulk-loaded keys, so no request misses.
func genRequests(seed int64, mix kvMix, window time.Duration) []request {
	r := rand.New(rand.NewSource(seed))
	var out []request
	t := 0.0
	for {
		t += r.ExpFloat64() / mix.rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		req := request{due: due, op: opGet, key: loadKey(uint64(r.Intn(mix.keys)))}
		if r.Float64() < mix.setFrac {
			req.op = opSet
			req.val = uint64(r.Int63())
		}
		out = append(out, req)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
