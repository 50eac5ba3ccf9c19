package main

import (
	"context"
	"time"
)

// loopStats is what one client loop saw: every request counts as
// attempted, an error or a refusal as failed, and an answer slower than
// the class limit as over the limit. Over-limit answers are correct
// answers: they are reported as a share, not as failed operations (one
// stall of the whole VM puts a hundred queued requests over a 50 ms limit).
type loopStats struct {
	attempted int
	failed    int
	overLimit int
	firstErr  error
}

func (a *loopStats) add(b loopStats) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.overLimit += b.overLimit
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
}

// count books one finished request.
func (a *loopStats) count(err error, took, limit time.Duration) {
	a.attempted++
	switch {
	case err != nil:
		a.failed++
		if a.firstErr == nil {
			a.firstErr = err
		}
	case took > limit:
		a.overLimit++
	}
}

// openLoop issues op on a fixed schedule — request i is due at
// start + i·interval — on the calling goroutine (one connection), until
// the schedule passes end or ctx ends.
//
// A request whose slot had already passed when the client became free —
// the previous request overran — is timed from its DUE time: the requests
// queued behind a stall are charged the wait, as independent users would
// be. A request the client was idle for is timed from its send: the only
// delay between due and send is then the generator's own timer overshoot
// (0.7 ms at the median in the sandbox this was written in, several times
// a cache-hit query), which is the generator's to report, not the
// daemon's. late records that send-minus-due lateness for every request.
// Requests due before `record` are sent but not recorded (warm-up).
func openLoop(ctx context.Context, start, record, end time.Time, interval, limit time.Duration,
	lat *series, late *hist, op func(i int, due time.Time) error) loopStats {
	var st loopStats
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) || ctx.Err() != nil {
			return st
		}
		wait := time.Until(due)
		if wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		from := due
		if wait > 0 {
			from = sent
		}
		err := op(i, due)
		done := time.Now()
		took := done.Sub(from)
		if due.Before(record) {
			continue
		}
		lat.recordAt(done, took)
		late.record(sent.Sub(due))
		st.count(err, took, limit)
	}
}

// closedLoop issues op back to back on the calling goroutine until end: a
// slow system receives less load. prep makes request i's input and is not
// timed: it is the generator's work, not the system's. Iterations started
// before `record` are warm-up.
func closedLoop(ctx context.Context, record, end time.Time, limit time.Duration,
	lat *series, prep func(i int), op func(i int) error) loopStats {
	var st loopStats
	for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
		prep(i)
		begin := time.Now()
		err := op(i)
		done := time.Now()
		took := done.Sub(begin)
		if begin.Before(record) {
			continue
		}
		lat.recordAt(done, took)
		st.count(err, took, limit)
	}
	return st
}
