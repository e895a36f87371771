package recovery

import (
	"fmt"
	"sync"

	"decafdrivers/internal/kernel"
)

// Entry is one journaled configuration-changing operation: a keyed record of
// a crossing that established driver state a restart must rebuild (module
// parameters, probe-time hardware programming, MAC/filter setup, ring and
// coalesce configuration, interface bring-up). The Replay closure re-issues
// the operation against the restarted decaf driver.
type Entry struct {
	// Key identifies the configuration the entry establishes. Recording a
	// second entry with the same key supersedes the first in place — the
	// journal keeps the latest value at the original position, so replay
	// order matches the order the configurations were first established
	// (probe before ifup, ifup before runtime reconfiguration).
	Key string
	// Name labels the entry for diagnostics.
	Name string
	// Replay re-issues the operation. It runs in process context during
	// recovery, after the decaf-side state has been recreated, and may
	// cross (handler upcalls, and their downcalls) freely. The first failing entry aborts the
	// replay — a restart that cannot rebuild its configuration is a failed
	// restart attempt, not a partially configured driver.
	Replay func(ctx *kernel.Context) error
}

// StateJournal records the configuration-changing operations of one driver
// so a recovery supervisor can replay them after a restart — the shadow
// driver's log of state-establishing calls. Recording is kernel-side
// bookkeeping only: it performs no crossing and allocates one entry per
// distinct configuration key, so steady-state data-path cost (crossings per
// packet) is untouched when no fault ever fires.
//
// The journal deliberately does not record data-path traffic (packets are
// held or dropped by the kernel-facing proxy, not replayed from here) or
// soft state a restart legitimately resets (adaptive coalescing EWMAs,
// statistics, in-flight completions).
type StateJournal struct {
	mu      sync.Mutex
	entries []Entry
	index   map[string]int
}

// NewStateJournal creates an empty journal.
func NewStateJournal() *StateJournal {
	return &StateJournal{index: make(map[string]int)}
}

// Record journals an entry. A key seen before is superseded in place; a new
// key appends.
func (j *StateJournal) Record(e Entry) {
	if e.Key == "" || e.Replay == nil {
		panic(fmt.Sprintf("recovery: Record of malformed entry %q (need Key and Replay)", e.Name))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if i, ok := j.index[e.Key]; ok {
		j.entries[i] = e
		return
	}
	j.index[e.Key] = len(j.entries)
	j.entries = append(j.entries, e)
}

// Remove drops the entry for key (configuration explicitly torn down — an
// ifdown removes the ifup entry) and reports whether it existed.
func (j *StateJournal) Remove(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	i, ok := j.index[key]
	if !ok {
		return false
	}
	j.entries = append(j.entries[:i], j.entries[i+1:]...)
	delete(j.index, key)
	for k, pos := range j.index {
		if pos > i {
			j.index[k] = pos - 1
		}
	}
	return true
}

// Len reports the live entry count.
func (j *StateJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Replay re-issues every live entry in order, stopping at the first failure,
// and reports how many entries ran (including a failed one) and the first
// error. Entries run outside the journal lock — they cross — against a
// snapshot of the entry list, so an entry that records further journal state
// (a replayed ifup re-recording itself) cannot deadlock.
func (j *StateJournal) Replay(ctx *kernel.Context) (int, error) {
	j.mu.Lock()
	entries := make([]Entry, len(j.entries))
	copy(entries, j.entries)
	j.mu.Unlock()

	for i, e := range entries {
		if err := e.Replay(ctx); err != nil {
			return i + 1, fmt.Errorf("recovery: replay of %s (%s): %w", e.Key, e.Name, err)
		}
	}
	return len(entries), nil
}
