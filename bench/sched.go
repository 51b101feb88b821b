package main

import (
	"context"
	"time"
)

// openLoop fires fn(i, due) at start, start+period, start+2·period, …
// until `until`, on the caller's goroutine. The schedule never slows
// when fn does: a late tick runs immediately and its due time is still
// the scheduled instant, so the caller times each operation from when
// it was due (a stall is charged to the operations it delayed), and
// lateness — how long after its due time a tick actually started — is
// reported through lag.
func openLoop(ctx context.Context, start time.Time, period time.Duration, until time.Time, lag func(time.Duration), fn func(i int, due time.Time)) int {
	i := 0
	for ; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(until) || ctx.Err() != nil {
			return i
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return i
			}
		}
		if lag != nil {
			lag(max(time.Since(due), 0))
		}
		fn(i, due)
	}
}
