// Package fixture exercises the lockio analyzer: file and network IO
// must not run while a districtlint:lockio-designated mutex is held,
// directly or through package functions and local closures.
package fixture

import (
	"os"
	"sync"

	"repro/internal/wal"
)

type thing struct {
	// mu is the designated hot-path lock.
	mu sync.Mutex // districtlint:lockio
	// plain is an ordinary lock; IO under it is fine.
	plain sync.Mutex
	f     *os.File
}

func cond() bool { return false }

func (t *thing) direct() {
	t.mu.Lock()
	_ = t.f.Sync() // want "lockio: Sync performs file or network IO under designated mutex \"mu\""
	t.mu.Unlock()
	_ = t.f.Sync() // after the unlock: fine
}

func (t *thing) deferred() {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.f.Sync() // want "lockio: Sync performs file or network IO"
}

func (t *thing) branchHeld() {
	t.mu.Lock()
	if cond() {
		t.mu.Unlock()
		return
	}
	_ = t.f.Sync() // want "lockio: Sync performs" — the early-return unlock does not cover the fall-through
	t.mu.Unlock()
}

func (t *thing) undesignated() {
	t.plain.Lock()
	_ = t.f.Sync() // plain is not designated: fine
	t.plain.Unlock()
}

func (t *thing) transitive() {
	t.mu.Lock()
	t.helper() // want "lockio: call to helper runs file or network IO"
	t.mu.Unlock()
}

func (t *thing) helper() {
	_, _ = os.Create("x")
}

func (t *thing) closure() {
	flush := func() {
		_, _ = os.Create("y")
	}
	t.mu.Lock()
	flush() // want "lockio: closure flush runs file or network IO"
	t.mu.Unlock()
}

func (t *thing) spawned() {
	t.mu.Lock()
	go t.helper() // the goroutine does not hold the lock: fine
	t.mu.Unlock()
}

func (t *thing) pure() {
	t.mu.Lock()
	_ = os.Getenv("HOME") // env lookup is not IO in this rule's sense
	t.mu.Unlock()
}

// journaled binds its order to a log's by staging under its hot lock
// and committing after it.
type journaled struct {
	mu  sync.Mutex // districtlint:lockio
	log *wal.Log
}

func (j *journaled) stage(p []byte) uint64 {
	j.mu.Lock()
	seq, _ := j.log.Stage(p) // staging frames the record in memory: fine
	j.mu.Unlock()
	_, _, _ = j.log.Commit(seq) // after the unlock: fine
	return seq
}

func (j *journaled) commitHeld(seq uint64, p []byte) {
	j.mu.Lock()
	_, _, _ = j.log.Commit(seq) // want "lockio: Commit performs file or network IO"
	_, _ = j.log.Append(p)      // want "lockio: Append performs file or network IO"
	j.mu.Unlock()
}
