package codeserver

import (
	"container/list"
	"sync"

	"safetsa/internal/interp"
)

// sessionPool is the warm-session pool: per-unit snapshots of
// post-static-init compiled-engine state (interp.Snapshot), built lazily
// by the first successful /run of a unit and cloned for every later
// run, so the static initializers execute once per unit instead of once
// per request. Entries are LRU-bounded; a snapshot is only
// published after Snapshot.Verify proves a probe clone reproduces the
// frozen heap checksum, init output, and budget drain byte-exactly.
//
// Units whose static init fails (deterministically or by budget kill)
// never produce a snapshot — every request for them runs fresh and
// observes the exact fresh-session failure. Requests whose budgets are
// too tight to have survived init are declined by the server (see
// Snapshot.Admits) and also run fresh.
type sessionPool struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*poolEntry
	order   *list.List // front = most recently used
	m       *Metrics
}

type poolEntry struct {
	snap *interp.Snapshot
	el   *list.Element // value: Key
}

func newSessionPool(max int, m *Metrics) *sessionPool {
	return &sessionPool{
		max:     max,
		entries: make(map[Key]*poolEntry),
		order:   list.New(),
		m:       m,
	}
}

// Get returns the warm snapshot for k, bumping its recency, or nil when
// the pool holds none.
func (p *sessionPool) Get(k Key) *interp.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[k]
	if !ok {
		return nil
	}
	p.order.MoveToFront(e.el)
	return e.snap
}

// has reports whether k is already pooled, so the build path can skip
// the snapshot+verify work when it would be discarded anyway.
func (p *sessionPool) has(k Key) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[k]
	return ok
}

// Offer snapshots a session that just finished static init and, when no
// snapshot for k exists yet, verifies and publishes it.
// initOut is the output the session printed during init. Racing offers
// are benign: both build identical snapshots (the clone machinery is
// deterministic) and the first insert wins.
func (p *sessionPool) Offer(k Key, l *interp.Loader, initOut []byte) {
	if p.has(k) {
		return
	}
	snap, err := l.Snapshot(initOut)
	if err != nil {
		p.m.poolVerifyFails.Add(1)
		return
	}
	if err := snap.Verify(); err != nil {
		// A snapshot that cannot reproduce itself must never serve
		// traffic; the counter is the alarm (this indicates a clone
		// machinery bug, not a property of the unit).
		p.m.poolVerifyFails.Add(1)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[k]; ok {
		return // lost the race; the published twin is identical
	}
	for p.max > 0 && len(p.entries) >= p.max {
		back := p.order.Back()
		if back == nil {
			break
		}
		old := back.Value.(Key)
		p.order.Remove(back)
		delete(p.entries, old)
		p.m.poolEvictions.Add(1)
	}
	el := p.order.PushFront(k)
	p.entries[k] = &poolEntry{snap: snap, el: el}
	p.m.poolBuilds.Add(1)
}

// Len reports the pooled snapshot count.
func (p *sessionPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
