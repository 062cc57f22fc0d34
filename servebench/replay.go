package main

import (
	"context"
	"fmt"
	"time"

	"safetsa/internal/interp"
)

// The server times its stages but not the optimizer's passes or the
// interpreter's split into load, static init, snapshot, clone and main.
// The traced run's replay times those: it replays each request of the
// traced phase, in the client's order, through the calls in layers.go.
// A run takes the path the server took, which the client knows: run-hot
// runs and fleet-churn runs at a node that already ran the unit are
// served from the warm-session pool; a fleet-churn unit's first run at a
// node builds its snapshot.

type replayer struct {
	b   *bench
	rec *recorder
	// hot holds run-hot's pooled snapshots, built untraced before the
	// replay the way set-up built the server's.
	hot []*interp.Snapshot
	// replayed counts the requests replayed; the replay's metrics are
	// means over them.
	replayed int
	failed   int
	errs     errs
	// passRemoved and checksRemoved sum the optimizer counts over the
	// replayed compiles.
	passRemoved   map[string]int
	checksRemoved int
}

func newReplayer(ctx context.Context, b *bench, rec *recorder) (*replayer, error) {
	p := &replayer{b: b, rec: rec, passRemoved: make(map[string]int)}
	if b.workload == runHot {
		p.hot = make([]*interp.Snapshot, len(b.units))
		for u := range b.units {
			data, err := b.fx.unitBytes(ctx, 0, b.hashes[u])
			if err != nil {
				return nil, err
			}
			lu, err := load(data)
			if err != nil {
				return nil, err
			}
			if _, p.hot[u], err = runFresh(tracer{}, 0, lu); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// replay replays logged requests, one client loop iteration at a time
// and the clients in turn, until d has passed.
func (p *replayer) replay(logs [][]issued, d time.Duration) {
	deadline := time.Now().Add(d)
	next := make([]int, len(logs))
	for progress := true; progress && time.Now().Before(deadline); {
		progress = false
		for c, log := range logs {
			i := next[c]
			if i >= len(log) {
				continue
			}
			j := i + 1
			for j < len(log) && log[j].loop == log[i].loop {
				j++
			}
			p.iteration(log[i:j])
			next[c] = j
			progress = true
		}
	}
}

// iteration replays one loop iteration: a single request, or a
// fleet-churn compile with its runs.
func (p *replayer) iteration(reqs []issued) {
	b := p.b
	var lu *loaded                          // fleet-churn: the iteration's unit
	snaps := make(map[int]*interp.Snapshot) // fleet-churn: pooled snapshot per node
	for _, r := range reqs {
		t := tracer{rec: p.rec, req: r.id}
		root := t.open(0, "replay")
		u := r.op.unit
		var res runResult
		var err error
		ran := false
		switch {
		case r.op.kind == opCompile:
			var bu built
			if bu, err = produce(t, root, salted(b.units[u].files, r.op.salt), r.op.moduleOpt); err != nil {
				break
			}
			err = b.checkCompile(u, r.op.moduleOpt, len(bu.wire), bu.instrs)
			for name, n := range bu.passRemoved {
				p.passRemoved[name] += n
			}
			p.checksRemoved += bu.checksRemoved
			if err == nil && b.workload == fleetChurn {
				lu, err = load(bu.wire)
			}
		case r.op.kind == opStream:
			res, err = runStream(t, root, b.wires[u])
			ran = true
		case b.workload == runHot:
			res, err = runPooled(t, root, p.hot[u])
			ran = true
		case lu == nil:
			err = fmt.Errorf("%s: run without a compiled unit", b.units[u].name)
		case snaps[r.op.node] == nil: // first run at this node
			res, snaps[r.op.node], err = runFresh(t, root, lu)
			ran = true
		default:
			res, err = runPooled(t, root, snaps[r.op.node])
			ran = true
		}
		t.close(root)
		if err == nil && ran {
			err = b.checkRun(u, true, "", res.output, res.steps, res.allocs)
		}
		p.replayed++
		if err != nil {
			p.failed++
			p.errs.add(fmt.Errorf("replay: %w", err))
		}
	}
}
