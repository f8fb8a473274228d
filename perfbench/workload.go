package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"seuss"
)

// call is one generated invocation: the function it names and the
// argument it passes, plus the output the benchmark expects back.
type call struct {
	fn *function
	x  int64 // args.x
}

// function is one deployable function of a workload. Every non-NOP
// function returns {f: id, v: args.x * mul + add}, so the benchmark can
// compute each response's expected output from the request alone.
type function struct {
	key, source string
	id          int64
	mul, add    int64
	nop         bool   // seuss.NOPSource: returns {}
	prefix      []byte // JSON request body up to the args object
}

func newFunction(key string, id, mul, add int64) *function {
	src := fmt.Sprintf("function main(args) { return {f: %d, v: args.x * %d + %d}; }", id, mul, add)
	return withPrefix(&function{key: key, source: src, id: id, mul: mul, add: add})
}

func nopFunction(i int) *function {
	spec := seuss.NOP(i)
	return withPrefix(&function{key: spec.Key, source: spec.Source, nop: true})
}

func withPrefix(f *function) *function {
	k, _ := json.Marshal(f.key) // strings always marshal
	s, _ := json.Marshal(f.source)
	f.prefix = []byte(`{"key":` + string(k) + `,"source":` + string(s) + `,"args":`)
	return f
}

// want is the v field the function must return for argument x.
func (c call) want() int64 { return c.x*c.fn.mul + c.fn.add }

// args is the JSON argument object of the call.
func (c call) args() string { return `{"x":` + strconv.FormatInt(c.x, 10) + `}` }

// appendBody appends the /invoke request body for the call.
func (c call) appendBody(dst []byte) []byte {
	dst = append(dst, c.fn.prefix...)
	dst = append(dst, `{"x":`...)
	dst = strconv.AppendInt(dst, c.x, 10)
	return append(dst, "}}"...)
}

// fnResult is the "result" object every benchmark function returns;
// pointers tell an absent field from a zero one.
type fnResult struct {
	F *int64 `json:"f"`
	V *int64 `json:"v"`
}

// check reports whether a function's decoded result is the expected
// output of the call.
func (c call) check(ok bool, r fnResult) bool {
	if !ok {
		return false
	}
	if c.fn.nop {
		return r.F == nil && r.V == nil
	}
	return r.F != nil && *r.F == c.fn.id && r.V != nil && *r.V == c.want()
}

// workload is one traffic mix: the server flags it runs under, its
// function population and popularity, its open-loop rate, and the
// invocation path its steady state must take.
type workload struct {
	name string
	why  string
	// flags are seuss-node flags beyond -addr and -shards; snapdir adds
	// -snapdir <fresh temp dir>.
	flags   []string
	snapdir bool
	// tick is the -policy-tick period (0 = no lifecycle policy).
	tick time.Duration
	// rate is the open-loop arrival rate in requests per second.
	// closedRate sizes each closed-loop round: the calls it sends are
	// about closedRate × the round's share of --seconds (the closed-loop
	// throughput measured on a 2-vCPU box).
	rate, closedRate float64
	// path is the invocation path steady-state requests must take, at
	// least minShare of them.
	path     string
	minShare float64
	// gen builds the seeded request generator of one phase: each phase
	// (warm-up, closed loop, open loop, replay) draws its own stream, so
	// the calls a phase makes do not depend on how many an earlier,
	// time-bounded phase drew. Fixed populations are the same functions
	// in every phase. warmup is the number of calls the warm-up pass
	// makes; for a fixed population they are one call per function.
	gen    func(seed int64, phase int) *generator
	warmup int
	// warmPasses is how many times the warm-up sends its calls, the
	// reaper drained between passes. scale-to-zero makes two: the first
	// deploys cold, the second is each function's first restore, which
	// records its working set, so measured restores are all recorded
	// ones (the steady state) rather than a mix that shifts over a run.
	warmPasses int
	// fabric marks the in-process cluster workload.
	fabric bool
	// setups is how many set-ups a run makes; setup_s is their median.
	setups int
	// rounds is how many closed-loop + open-loop rounds share --seconds;
	// closed is the part of --seconds spent in closed loops, the open
	// loops get the rest.
	rounds int
	closed float64
}

// generator yields a workload's deterministic call stream. It is safe
// for concurrent use; the sequence of calls is a function of the seed
// alone, whichever worker draws each one.
type generator struct {
	mu    sync.Mutex
	rng   *rand.Rand
	fns   []*function // fixed population (nil for cold-churn)
	pick  func(r *rand.Rand) int
	fresh func(n int64, r *rand.Rand) *function // cold-churn: a new function per call
	n     int64
}

func (g *generator) next() call {
	g.mu.Lock()
	defer g.mu.Unlock()
	var f *function
	if g.fresh != nil {
		f = g.fresh(g.n, g.rng)
	} else {
		f = g.fns[g.pick(g.rng)]
	}
	g.n++
	return call{fn: f, x: g.rng.Int63n(1000)}
}

// warmupCalls returns one call per function of a fixed population (in
// population order), or n fresh calls for an unbounded one.
func (g *generator) warmupCalls(n int) []call {
	if g.fresh != nil {
		out := make([]call, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	out := make([]call, len(g.fns))
	for i, f := range g.fns {
		out[i] = call{fn: f, x: int64(i % 1000)}
	}
	return out
}

// population builds n functions under prefix with seed-derived
// constants.
func population(prefix string, n int, r *rand.Rand) []*function {
	fns := make([]*function, n)
	for i := range fns {
		fns[i] = newFunction(fmt.Sprintf("%s/f%04d", prefix, i), int64(i+1), 2+r.Int63n(97), r.Int63n(10000))
	}
	return fns
}

const (
	hotFunctions  = 64
	s2zFunctions  = 2048
	fabricFns     = 1024
	coldWarmup    = 256
	fabricMembers = 4
	fabricC       = 4
)

var workloads = []*workload{
	{
		name: "hot-http",
		why:  "64 fns, Zipf, memory-only node, all hot after warm-up: HTTP/JSON envelope, shard routing and interp execute do the work; snapstore, capture and compile idle",
		rate: 500, closedRate: 5500, path: "hot", minShare: 0.99,
		warmup: hotFunctions, warmPasses: 1, setups: 9, rounds: 30, closed: 0.3,
		gen: func(seed int64, phase int) *generator {
			fns := population("hot", hotFunctions, rand.New(rand.NewSource(seed)))
			r := phaseRand(seed, phase)
			z := rand.NewZipf(r, 1.1, 1, hotFunctions-1)
			return &generator{rng: r, fns: fns, pick: func(*rand.Rand) int { return int(z.Uint64()) }}
		},
	},
	{
		name:  "scale-to-zero",
		why:   "2048 fns in shuffled cycles, scale-to-zero policy over a disk tier, ≥95% lukewarm: snapstore get/put, codec, graft and the reaper's demote do the work; compile idle",
		flags: []string{"-policy", "none", "-policy-tick", "200ms"}, snapdir: true, tick: 200 * time.Millisecond,
		rate: 25, closedRate: 300, path: "lukewarm", minShare: 0.95,
		warmup: s2zFunctions, warmPasses: 2, setups: 2, rounds: 3, closed: 0.5,
		gen: func(seed int64, phase int) *generator {
			fns := population("s2z", s2zFunctions, rand.New(rand.NewSource(seed)))
			return &generator{rng: phaseRand(seed, phase), fns: fns, pick: cycle(s2zFunctions)}
		},
	},
	{
		name:  "cold-churn",
		why:   "every request a never-seen fn with its own source, 100% cold: deploy, compile, capture and frame allocation do the work; no disk tier, snapstore idle",
		flags: []string{"-policy", "none", "-policy-tick", "200ms"}, tick: 200 * time.Millisecond,
		rate: 300, closedRate: 1700, path: "cold", minShare: 1,
		warmup: coldWarmup, warmPasses: 1, setups: 9, rounds: 15, closed: 0.3,
		gen: func(seed int64, phase int) *generator {
			return &generator{rng: phaseRand(seed, phase), fresh: func(n int64, r *rand.Rand) *function {
				return newFunction(fmt.Sprintf("cc%d/p%d/f%07d", seed, phase, n), n+1, 2+r.Int63n(97), r.Int63n(10000))
			}}
		},
	},
	{
		name:   "fabric-sim",
		why:    "4-member virtual-time DistCluster, fabric on, LocalityPlacer, closed-loop trial over 1024 NOPs, C=4: cluster, sched, faas and the sim engine; no HTTP front, no shardpool",
		fabric: true, warmup: fabricFns, setups: 9,
		gen: func(seed int64, phase int) *generator {
			fns := make([]*function, fabricFns)
			for i := range fns {
				fns[i] = nopFunction(i)
			}
			return &generator{rng: phaseRand(seed, phase), fns: fns, pick: func(r *rand.Rand) int { return r.Intn(fabricFns) }}
		},
	},
}

// cycle picks from n functions in seeded random permutations, one
// after another: every function is equally popular, and a function
// comes back only after about n other calls, far longer than a reaper
// tick, so its next call finds it demoted.
func cycle(n int) func(r *rand.Rand) int {
	var perm []int
	return func(r *rand.Rand) int {
		if len(perm) == 0 {
			perm = r.Perm(n)
		}
		i := perm[0]
		perm = perm[1:]
		return i
	}
}

// phaseRand is the stream source of one phase of one seed.
func phaseRand(seed int64, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(phase) + 1))
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
