package main

import (
	"fmt"
	"math/rand/v2"
)

// The four workloads. Each stresses a different stretch of the serving
// path and bypasses the rest; README.md gives the layer map.
const (
	compileMiss = "compile-miss"
	runHot      = "run-hot"
	admitStream = "admit-stream"
	fleetChurn  = "fleet-churn"
)

var workloadNames = []string{compileMiss, runHot, admitStream, fleetChurn}

// fleetSize is the node count of the fleet-churn workload; every other
// workload drives a single node.
const fleetSize = 3

// runsPerLoop is how often fleet-churn runs each freshly compiled unit.
const runsPerLoop = 3

type opKind int

const (
	opCompile opKind = iota
	opRun
	opStream
)

func (k opKind) String() string {
	return [...]string{"compile", "run", "stream"}[k]
}

// op is one HTTP request of a client loop iteration. The generator
// decides everything about it except, for fleet-churn runs, the unit
// hash, which is the one the iteration's compile returned.
type op struct {
	kind      opKind
	unit      int    // corpus index
	node      int    // fleet node index (0 on a single node)
	moduleOpt bool   // compile: ask for the interprocedural tier
	salt      string // compile: comment appended to the source
}

// generator yields one client's request sequence. The sequence is a
// pure function of (workload, seed, client); the program under test
// sees only the request bodies built from it. Units are drawn in rounds:
// each round visits every corpus unit once in a seeded order, so draws
// are uniform and a run's program mix does not depend on the seed.
type generator struct {
	workload string
	seed     uint64
	client   int
	rng      *rand.Rand
	n        int   // loop iterations drawn so far
	order    []int // the current round's unit order
	optPick  []int // compile-miss: units[i] gets module_opt if optPick[i] < len/3
}

func newGenerator(workload string, seed uint64, client, units int) *generator {
	return &generator{
		workload: workload,
		seed:     seed,
		client:   client,
		rng:      rand.New(rand.NewPCG(seed, uint64(client)+1)),
		order:    make([]int, units),
	}
}

// next draws the requests of one closed-loop iteration: a single
// request, or for fleet-churn a compile followed by its runs.
func (g *generator) next() []op {
	units := len(g.order)
	pos := g.n % units
	if pos == 0 {
		g.order = g.rng.Perm(units)
		if g.workload == compileMiss {
			g.optPick = g.rng.Perm(units)
		}
	}
	g.n++
	u := g.order[pos]
	switch g.workload {
	case compileMiss:
		return []op{{kind: opCompile, unit: u, salt: g.salt(), moduleOpt: g.optPick[pos] < units/3}}
	case runHot:
		return []op{{kind: opRun, unit: u}}
	case admitStream:
		return []op{{kind: opStream, unit: u}}
	case fleetChurn:
		ops := []op{{kind: opCompile, unit: u, salt: g.salt(), node: g.rng.IntN(fleetSize)}}
		for i := 0; i < runsPerLoop; i++ {
			ops = append(ops, op{kind: opRun, unit: u, node: g.rng.IntN(fleetSize)})
		}
		return ops
	}
	panic("servebench: unknown workload " + g.workload)
}

func (g *generator) salt() string {
	return fmt.Sprintf("seed %d client %d draw %d", g.seed, g.client, g.n)
}

// salted returns the source set with a comment line appended to every
// file. The comment changes the content hash (a new store key) but
// nothing the front end keeps, so the unit bytes equal the unsalted
// unit's.
func salted(files map[string]string, salt string) map[string]string {
	if salt == "" {
		return files
	}
	out := make(map[string]string, len(files))
	for n, src := range files {
		out[n] = src + "\n// servebench " + salt + "\n"
	}
	return out
}
