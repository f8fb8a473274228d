package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"seuss"
	"seuss/internal/libos"
	"seuss/internal/mem"
	"seuss/internal/sched"
	"seuss/internal/snapshot"
	"seuss/internal/snapstore"
	"seuss/internal/uc"
)

// The traced run replays a workload's seeded request stream against
// each layer's public functions and times the calls from here: the
// program carries no tracing of its own for this. Spans are kept in
// memory and written as JSON lines when the run ends.
//
//   - HTTP front: the stream over one connection to a fresh seuss-node
//     (the workload's flags; fabric-sim uses the defaults), with server
//     and client CPU, bytes, and /stats and /metrics deltas.
//   - shardpool: the stream through an in-process seuss.NodePool built
//     like seuss-node builds its pool, once with spans and once without
//     (the tracing overhead and the Go runtime counters come from the
//     untraced pass).
//   - core: the stream through a facade seuss.Node, bucketed by path.
//   - uc, interp, snapshot, snapstore: the workload's functions through
//     the layer functions a cold start and a disk-tier restore call, on
//     a store holding the workload's entry count.
//   - sched: Placer.Place over the stream on a four-member view, or,
//     for fabric-sim, wrapped around the trial's own placer.

// span is one timed call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // index of the request in its stream
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"` // e.g. the invocation path
	Start  int64  `json:"start_ns"`       // since the run began
	End    int64  `json:"end_ns"`
}

// tracer records spans when on; when off, begin/end cost two branches.
type tracer struct {
	on    bool
	base  time.Time
	next  int64
	spans []span
}

type openSpan struct {
	id, parent, req int64
	name            string
	start           int64
}

func (t *tracer) begin(name string, req, parent int64) openSpan {
	if !t.on {
		return openSpan{}
	}
	t.next++
	return openSpan{id: t.next, parent: parent, req: req, name: name, start: int64(time.Since(t.base))}
}

func (t *tracer) end(o openSpan, attr string) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Attr: attr,
		Start: o.start, End: int64(time.Since(t.base))})
}

// durations returns the µs durations of every span named name (and,
// when attr is not empty, carrying that attribute).
func (t *tracer) durations(name, attr string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics are the metrics the --trace 1 JSON line carries, on every
// workload (BENCHMARK.json per_layer). Each is measured on every
// workload; a layer a workload bypasses reads as a zero count there.
// Printed-only metrics are those some workload cannot produce: a path
// bucket it never takes, the reaper tick of a workload without a
// policy, and the GC pause total, which is zero when a replay triggers
// no collection.
var layerMetrics = []string{
	"http.invoke_us", "http.coverage",
	"seuss-node.self_us", "seuss-node.cpu_us_per_req", "seuss-node.req_bytes", "seuss-node.resp_bytes",
	"client.cpu_us_per_req",
	"shardpool.invoke_us", "shardpool.self_us", "shardpool.stolen", "shardpool.requeued", "shardpool.breaker_trips",
	"core.invoke_us", "core.path_share.cold", "core.path_share.warm", "core.path_share.hot", "core.path_share.lukewarm",
	"core.mem_used_mb", "core.reaper.expired", "core.reaper.demoted",
	"uc.deploy_us", "uc.deploy_prefetched_us", "uc.kit_hit_ratio",
	"interp.import_compile_us", "interp.invoke_us",
	"snapshot.capture_us", "snapshot.export_us", "snapshot.graft_us", "snapshot.wire_bytes",
	"snapstore.get_us", "snapstore.put_us", "snapstore.put_new_us", "snapstore.manifest_bytes",
	"snapstore.hit_ratio", "snapstore.puts_per_req", "snapstore.ws_coverage",
	"sched.place_us", "sched.placements.cold", "sched.placements.route", "sched.placements.fetch", "sched.placements.migrate",
	"cluster.colds", "fabric.fetches", "fabric.layer_dedups", "faas.retries",
	"go.allocs_per_req", "go.alloc_bytes_per_req",
	"trace.overhead_ratio",
}

// replayN is the length of the replayed stream: a quarter of what the
// open loop sends in --seconds, so the traced run stays within a few
// times --seconds.
func replayN(w *workload, seconds int) int {
	rate := w.rate
	if w.fabric {
		rate = 1000
	}
	return int(rate * float64(seconds) / 4)
}

// entryCount is the number of disk-tier entries the workload's store
// would hold: its population, or its warm-up count for the unbounded
// cold-churn population.
func entryCount(w *workload) int {
	switch {
	case w.fabric:
		return fabricFns
	case w.name == "hot-http":
		return hotFunctions
	case w.name == "scale-to-zero":
		return s2zFunctions
	default:
		return coldWarmup
	}
}

// serverWorkload is the seuss-node configuration the traced run's HTTP
// and in-process replays use: the workload's own, or the defaults for
// fabric-sim (whose real run has no HTTP front).
func serverWorkload(w *workload) *workload {
	if !w.fabric {
		return w
	}
	c := *w
	c.flags, c.snapdir, c.tick = nil, false, 0
	return &c
}

func (b *bench) runTraced(w *workload) error {
	tr := &tracer{on: true, base: time.Now()}
	sw := serverWorkload(w)
	n := replayN(w, b.seconds)
	stream := func() []call {
		g := w.gen(b.seed, phaseReplay)
		out := make([]call, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}

	fmt.Printf("traced replay (%s: %d requests per replay)\n", w.name, n)
	if err := b.traceHTTP(sw, tr, stream()); err != nil {
		return err
	}
	pool, err := b.tracePool(sw, tr, stream())
	if err != nil {
		return err
	}
	if err := b.traceNode(sw, tr, stream()); err != nil {
		return err
	}
	if err := b.traceLayers(w, tr, stream()); err != nil {
		return err
	}
	if w.fabric {
		if err := b.traceFabric(tr); err != nil {
			return err
		}
	} else {
		b.tracePlacement(tr, stream())
	}

	// Derived metrics: self times and coverage of the median request.
	httpMed := median(tr.durations("http.invoke", ""))
	poolMed := median(tr.durations("shardpool.invoke", ""))
	coreMed := median(tr.durations("core.invoke", ""))
	fmt.Println("self time and coverage")
	b.report("http.invoke_us", httpMed, "us", "median client service time from send, 1 connection")
	b.report("seuss-node.self_us", httpMed-poolMed, "us", "http.invoke_us − shardpool.invoke_us (HTTP/JSON envelope, loopback, client)")
	b.report("shardpool.self_us", poolMed-coreMed, "us", "shardpool.invoke_us − core.invoke_us (routing, queueing, shard hop)")
	b.report("http.coverage", poolMed/httpMed, "ratio", "share of the median HTTP request covered by the in-process span (shardpool.invoke)")
	fmt.Printf("  coverage: of the median %.1f µs request, shardpool.invoke covers %.1f µs (%.0f%%), core.invoke %.1f µs (%.0f%%); the rest is the HTTP front and client\n",
		httpMed, poolMed, 100*poolMed/httpMed, coreMed, 100*coreMed/httpMed)
	b.report("trace.overhead_ratio", pool.overhead, "ratio", fmt.Sprintf("pool replay wall time with spans %.3fs vs without %.3fs, minus 1", pool.tracedWall.Seconds(), pool.plainWall.Seconds()))

	spanDir := filepath.Join(b.workdir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, b.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("  %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// metricsCounters pulls the counters the traced run needs out of a
// /metrics exposition.
func metricsCounters(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// traceHTTP replays the stream over one connection to a fresh node.
func (b *bench) traceHTTP(w *workload, tr *tracer, calls []call) error {
	nd, err := b.startNode(w)
	if err != nil {
		return err
	}
	defer func() {
		if err := nd.stop(); err != nil {
			b.fail("%v", err)
		}
	}()
	warm := runList(nd, "traced warm-up", w.gen(b.seed, phaseWarmup).warmupCalls(w.warmup))
	b.count(warm)
	if w.tick > 0 {
		// Let the reaper scale the warm-up to zero, as the measured
		// stream finds it.
		time.Sleep(2 * w.tick)
	}
	var before, after nodeStats
	if err := nd.getJSON("/stats", &before); err != nil {
		return err
	}
	mBefore, err := nd.getText("/metrics")
	if err != nil {
		return err
	}
	srvCPU0, err := cpuTime(nd.pid())
	if err != nil {
		return err
	}
	cliCPU0, err := cpuTime(os.Getpid())
	if err != nil {
		return err
	}
	iv := &invoker{n: nd}
	recs := make([]record, len(calls))
	var reqB, respB int64
	for i, c := range calls {
		sp := tr.begin("http.invoke", int64(i), -1)
		o := iv.invoke(c)
		tr.end(sp, o.resp.Path)
		recs[i] = fromOutcome(o)
		reqB += int64(o.reqBytes)
		respB += int64(o.respLen)
	}
	cliCPU1, _ := cpuTime(os.Getpid())
	srvCPU1, err := cpuTime(nd.pid())
	if err != nil {
		return err
	}
	if err := nd.getJSON("/stats", &after); err != nil {
		return err
	}
	mAfter, err := nd.getText("/metrics")
	if err != nil {
		return err
	}
	ph := phase{name: "traced http", records: recs}
	b.count(ph)
	b.checkIDs([]phase{warm, ph})
	b.checkPaths(w, ph)
	for _, p := range after.problems() {
		b.failed++
		b.fail("%s", p)
	}
	manifest := int64(-1)
	if nd.snapdir != "" {
		if fi, err := os.Stat(filepath.Join(nd.snapdir, "manifest.json")); err == nil {
			manifest = fi.Size()
		}
	}

	nf := float64(len(calls))
	fmt.Println("seuss-node (HTTP front, 1 connection)")
	b.report("seuss-node.cpu_us_per_req", usOf(srvCPU1-srvCPU0)/nf, "us", "utime+stime of seuss-node over the replay ÷ requests (10 ms ticks)")
	b.report("seuss-node.req_bytes", float64(reqB)/nf, "bytes", "mean /invoke request body")
	b.report("seuss-node.resp_bytes", float64(respB)/nf, "bytes", "mean /invoke response body")
	b.report("client.cpu_us_per_req", usOf(cliCPU1-cliCPU0)/nf, "us", "utime+stime of this process over the replay ÷ requests")
	fmt.Println("shardpool and core counters (/stats deltas over the replay)")
	b.report("shardpool.stolen", float64(after.Stolen-before.Stolen), "count", "requests served off their owner shard")
	b.report("shardpool.requeued", float64(after.Robustness.Requeued-before.Robustness.Requeued), "count", "requests a stalled shard pushed back")
	b.report("shardpool.breaker_trips", float64(after.Robustness.BreakerTrips-before.Robustness.BreakerTrips), "count", "circuit-breaker trips")
	paths := map[string]int64{
		"cold": after.Cold - before.Cold, "warm": after.Warm - before.Warm,
		"hot": after.Hot - before.Hot, "lukewarm": after.Lukewarm - before.Lukewarm,
	}
	for _, p := range []string{"cold", "warm", "hot", "lukewarm"} {
		b.report("core.path_share."+p, float64(paths[p])/nf, "ratio", "share of the replay's requests")
	}
	b.report("core.mem_used_mb", after.MemoryUsedMB, "MB", "/stats memory_used_mb after the replay")
	m0, m1 := metricsCounters(mBefore), metricsCounters(mAfter)
	delta := func(k string) float64 { return m1[k] - m0[k] }
	kitHit := delta(`seuss_deploy_kit_lookups_total{result="hit"}`)
	kitMiss := delta(`seuss_deploy_kit_lookups_total{result="miss"}`)
	b.report("uc.kit_hit_ratio", ratio(kitHit, kitHit+kitMiss), "ratio", fmt.Sprintf("deploy-kit hits ÷ lookups from /metrics (%g lookups)", kitHit+kitMiss))
	fmt.Println("snapstore (disk tier, /stats deltas over the replay)")
	if before.SnapshotTier != nil && after.SnapshotTier != nil {
		hits := float64(after.SnapshotTier.Hits - before.SnapshotTier.Hits)
		misses := float64(after.SnapshotTier.Misses - before.SnapshotTier.Misses)
		b.report("snapstore.hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("tier hits ÷ lookups (%g lookups)", hits+misses))
		b.report("snapstore.puts_per_req", float64(after.SnapshotTier.Puts-before.SnapshotTier.Puts)/nf, "count", "tier writes per request (reaper demotes)")
		ch := float64(after.WorkingSet.CoverageHits - before.WorkingSet.CoverageHits)
		cm := float64(after.WorkingSet.CoverageMisses - before.WorkingSet.CoverageMisses)
		b.report("snapstore.ws_coverage", ratio(ch, ch+cm), "ratio", "touched pages a working-set record covered")
		if manifest >= 0 {
			fmt.Printf("  %-34s %14d %-8s seuss-node's own manifest.json after the replay\n", "(node manifest)", manifest, "bytes")
		}
	} else {
		b.report("snapstore.hit_ratio", 0, "ratio", "no disk tier on this workload (bypassed)")
		b.report("snapstore.puts_per_req", 0, "count", "no disk tier on this workload (bypassed)")
		b.report("snapstore.ws_coverage", 0, "ratio", "no disk tier on this workload (bypassed)")
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// poolTrace is the shardpool replay's wall times.
type poolTrace struct {
	tracedWall, plainWall time.Duration
	overhead              float64
}

// nodeConfig is the node configuration seuss-node runs the workload
// with; the caller attaches the disk tier.
func nodeConfig(w *workload) (seuss.NodeConfig, error) {
	cfg := seuss.NodeDefaults()
	cfg.Tracer = seuss.NewTrace(100000)
	cfg.Entropy = seuss.NewEntropySource()
	if w.tick > 0 {
		pol, err := seuss.NewLifecyclePolicy("none", 10*time.Minute)
		if err != nil {
			return cfg, err
		}
		cfg.Policy = pol
	}
	return cfg, nil
}

// tracePool replays the stream through an in-process NodePool twice,
// with and without spans. The reaper ticks on a wall-clock ticker like
// seuss-node's.
func (b *bench) tracePool(w *workload, tr *tracer, calls []call) (poolTrace, error) {
	var out poolTrace
	var tickMS []float64
	var expired, demoted, ticks int
	once := func(traced bool) (time.Duration, runtime.MemStats, runtime.MemStats, error) {
		var ms0, ms1 runtime.MemStats
		cfg, err := nodeConfig(w)
		if err != nil {
			return 0, ms0, ms1, err
		}
		var dir string
		if w.snapdir {
			if dir, err = b.tempDir("pool-tier"); err != nil {
				return 0, ms0, ms1, err
			}
			defer os.RemoveAll(dir)
			store, err := seuss.OpenSnapshotStore(dir, -1)
			if err != nil {
				return 0, ms0, ms1, err
			}
			cfg.SnapStore = store
		}
		pool, err := seuss.NewNodePool(seuss.PoolConfig{Shards: conns, Node: cfg})
		if err != nil {
			return 0, ms0, ms1, err
		}
		defer pool.Close()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if w.tick > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := time.NewTicker(w.tick)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						t0 := time.Now()
						ts, err := pool.PolicyTick(w.tick)
						if traced && err == nil {
							tickMS = append(tickMS, msOf(time.Since(t0)))
							expired += ts.ExpiredUCs
							demoted += ts.DemotedLineages
							ticks++
						}
					case <-stop:
						return
					}
				}
			}()
		}
		defer func() { close(stop); wg.Wait() }()
		for _, c := range w.gen(b.seed, phaseWarmup).warmupCalls(w.warmup) {
			if _, err := pool.InvokeRuntime("", c.fn.key, c.fn.source, c.args()); err != nil {
				return 0, ms0, ms1, fmt.Errorf("pool warm-up: %w", err)
			}
		}
		if w.tick > 0 {
			time.Sleep(2 * w.tick)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		rt := &tracer{on: traced, base: tr.base, next: tr.next}
		for i, c := range calls {
			sp := rt.begin("shardpool.invoke", int64(i), -1)
			inv, err := pool.InvokeRuntime("", c.fn.key, c.fn.source, c.args())
			rt.end(sp, inv.Path)
			b.attempted++
			if err != nil || !outputOK(c, inv.Output) {
				b.failed++
				b.fail("pool replay %s: %v %s", c.fn.key, err, inv.Output)
			}
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if traced {
			tr.next = rt.next
			tr.spans = append(tr.spans, rt.spans...)
		}
		return wall, ms0, ms1, nil
	}
	// Untraced, traced, untraced on fresh pools: comparing the traced
	// pass with the mean of the two around it cancels the drift of a
	// process that is still warming up.
	p1, _, _, err := once(false)
	if err != nil {
		return out, err
	}
	if out.tracedWall, _, _, err = once(true); err != nil {
		return out, err
	}
	p2, ms0, ms1, err := once(false)
	if err != nil {
		return out, err
	}
	out.plainWall = (p1 + p2) / 2
	out.overhead = out.tracedWall.Seconds()/out.plainWall.Seconds() - 1
	nf := float64(len(calls))
	fmt.Println("shardpool (in-process NodePool, same config and stream)")
	b.report("shardpool.invoke_us", median(tr.durations("shardpool.invoke", "")), "us", fmt.Sprintf("median NodePool.InvokeRuntime, n=%d", len(calls)))
	if len(tickMS) > 0 {
		b.report("shardpool.tick_ms", median(tickMS), "ms", fmt.Sprintf("median wall time of one PolicyTick, n=%d", len(tickMS)))
	} else {
		b.unavailable("shardpool.tick_ms", "ms", "no lifecycle policy on this workload, so no reaper ticks")
	}
	b.report("go.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/nf, "count", "heap allocations per request, untraced pool replay (pool and client side, one process)")
	b.report("go.alloc_bytes_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/nf, "bytes", "heap bytes allocated per request, same replay")
	b.report("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms", fmt.Sprintf("stop-the-world pause total over the replay (%d GCs, n=%d)", ms1.NumGC-ms0.NumGC, len(calls)))
	perTick := func(v int) float64 {
		if ticks == 0 {
			return 0
		}
		return float64(v) / float64(ticks)
	}
	b.report("core.reaper.expired", perTick(expired), "count", fmt.Sprintf("UCs expired per reaper tick (%d ticks)", ticks))
	b.report("core.reaper.demoted", perTick(demoted), "count", fmt.Sprintf("lineages scaled to zero per reaper tick (%d ticks)", ticks))
	return out, nil
}

// traceNode replays the stream through a facade Node, one invocation at
// a time, and buckets core.invoke by the path each one took.
func (b *bench) traceNode(w *workload, tr *tracer, calls []call) error {
	cfg, err := nodeConfig(w)
	if err != nil {
		return err
	}
	if w.snapdir {
		dir, err := b.tempDir("node-tier")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		store, err := seuss.OpenSnapshotStore(dir, -1)
		if err != nil {
			return err
		}
		cfg.SnapStore = store
	}
	sim := seuss.New()
	node, err := sim.NewNode(cfg)
	if err != nil {
		return err
	}
	lastTick := time.Now()
	tick := func() {
		if w.tick == 0 || time.Since(lastTick) < w.tick {
			return
		}
		lastTick = time.Now()
		sim.Spawn("reaper", func(t *seuss.Task) {
			t.Sleep(w.tick)
			node.PolicyTick(t)
		})
		sim.Run()
	}
	for _, c := range w.gen(b.seed, phaseWarmup).warmupCalls(w.warmup) {
		sp := tr.begin("core.invoke", -1, -1)
		inv, err := node.InvokeSync(c.fn.key, c.fn.source, c.args())
		tr.end(sp, inv.Path)
		if err != nil {
			return fmt.Errorf("node warm-up: %w", err)
		}
		tick()
	}
	if w.tick > 0 {
		time.Sleep(w.tick)
		tick()
	}
	var all []float64
	for i, c := range calls {
		tick()
		sp := tr.begin("core.invoke", int64(i), -1)
		t0 := time.Now()
		inv, err := node.InvokeSync(c.fn.key, c.fn.source, c.args())
		all = append(all, usOf(time.Since(t0)))
		tr.end(sp, inv.Path)
		b.attempted++
		if err != nil || !outputOK(c, inv.Output) {
			b.failed++
			b.fail("node replay %s: %v %s", c.fn.key, err, inv.Output)
		}
	}
	fmt.Println("core (facade Node.InvokeSync, warm-up and stream)")
	b.report("core.invoke_us", median(all), "us", fmt.Sprintf("median over the stream, n=%d", len(all)))
	for _, p := range []string{"cold", "warm", "hot", "lukewarm"} {
		d := tr.durations("core.invoke", p)
		if len(d) == 0 {
			b.unavailable("core.invoke_us."+p, "us", "no "+p+" invocations on this workload")
			continue
		}
		b.report("core.invoke_us."+p, median(d), "us", fmt.Sprintf("median, n=%d", len(d)))
	}
	return nil
}

// layerFunctions picks up to max distinct functions from the stream.
func layerFunctions(calls []call, max int) []call {
	seen := map[string]bool{}
	var out []call
	for _, c := range calls {
		if len(out) == max {
			break
		}
		if !seen[c.fn.key] {
			seen[c.fn.key] = true
			out = append(out, c)
		}
	}
	return out
}

// layerSample is the number of distinct functions the layer replay
// runs through the cold-start and restore paths.
const layerSample = 200

// traceLayers runs the workload's functions through the uc, interp,
// snapshot and snapstore calls of a cold start, a demote and a
// working-set-recorded restore, on a store that already holds the
// workload's entry count.
func (b *bench) traceLayers(w *workload, tr *tracer, calls []call) error {
	st := mem.NewStore(0)
	env := &libos.CountingEnv{}
	boot, err := uc.BootFresh(st, nil, env)
	if err != nil {
		return err
	}
	if err := boot.Guest().Unikernel().WarmNetwork(); err != nil {
		return err
	}
	if err := boot.Guest().WarmInterpreter(); err != nil {
		return err
	}
	base, err := boot.Capture("runtime", uc.TriggerPCDriverListen)
	if err != nil {
		return err
	}
	dir, err := b.tempDir("layer-tier")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := snapstore.Open(dir, -1)
	if err != nil {
		return err
	}

	fns := layerFunctions(calls, layerSample)
	var wire bytes.Buffer
	// One cold start per function: deploy from the base, connect,
	// import and compile, capture, run.
	type built struct {
		c    call
		snap *snapshot.Snapshot
		wire []byte
	}
	var bs []built
	for i, c := range fns {
		req := int64(i)
		root := tr.begin("cold", req, -1)
		sp := tr.begin("uc.deploy", req, root.id)
		u, err := uc.Deploy(base, nil, env)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		if err := u.Guest().Connect(); err != nil {
			return err
		}
		sp = tr.begin("interp.import_compile", req, root.id)
		err = u.Guest().ImportAndCompile(c.fn.source)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		sp = tr.begin("snapshot.capture", req, root.id)
		snap, err := u.Capture(c.fn.key, uc.TriggerPCPostCompile)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		sp = tr.begin("interp.invoke", req, root.id)
		out, err := u.Guest().Invoke(c.args())
		tr.end(sp, "first")
		tr.end(root, "")
		b.attempted++
		if err != nil || !outputOK(c, out) {
			b.failed++
			b.fail("layer replay %s: %v %s", c.fn.key, err, out)
		}
		// Hot invocations on the same UC, args varying.
		for k := int64(1); k <= 4; k++ {
			hc := call{fn: c.fn, x: (c.x + k*37) % 1000}
			sp = tr.begin("interp.invoke", req, -1)
			out, err := u.Guest().Invoke(hc.args())
			tr.end(sp, "hot")
			b.attempted++
			if err != nil || !outputOK(hc, out) {
				b.failed++
				b.fail("layer replay %s: %v %s", c.fn.key, err, out)
			}
		}
		u.Destroy()
		wire.Reset()
		sp = tr.begin("snapshot.export", req, -1)
		err = snap.Export(&wire)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		bs = append(bs, built{c: c, snap: snap, wire: append([]byte(nil), wire.Bytes()...)})
	}
	// Fill the store to the workload's entry count (content addressing
	// stores the shared bytes once; the manifest grows per entry).
	filler := bs[0].wire
	for i := 0; i < entryCount(w)-len(bs); i++ {
		if err := store.Put(fmt.Sprintf("fill/%05d", i), "runtime", filler); err != nil {
			return err
		}
	}
	var wireBytes []float64
	for i, f := range bs {
		req := int64(i)
		sp := tr.begin("snapstore.put_new", req, -1)
		err := store.Put(f.c.fn.key, "runtime", f.wire)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		// The reaper's demote re-puts unchanged bytes.
		sp = tr.begin("snapstore.put", req, -1)
		err = store.Put(f.c.fn.key, "runtime", f.wire)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		wireBytes = append(wireBytes, float64(len(f.wire)))
		// First restore records the working set, as the node does.
		diff, err := snapshot.ImportBytes(f.wire)
		if err != nil {
			return err
		}
		probeSnap, err := snapshot.GraftBulk(diff, base)
		if err != nil {
			return err
		}
		payload, err := uc.DecodePayload(diff.PayloadBytes)
		if err != nil {
			return err
		}
		probeSnap.SetPayload(payload)
		probe, err := uc.Deploy(probeSnap, nil, env)
		if err != nil {
			return err
		}
		record, err := snapshot.EncodeWorkingSet(probe.Space().DirtyPages())
		if err != nil {
			return err
		}
		probe.Destroy()
		probeSnap.Delete()
		if err := store.PutWorkingSet(f.c.fn.key, record); err != nil {
			return err
		}
		f.snap.Delete()
	}
	for i, f := range bs {
		req := int64(i)
		root := tr.begin("restore", req, -1)
		sp := tr.begin("snapstore.get", req, root.id)
		data, err := store.Get(f.c.fn.key)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		ws, _ := store.GetWorkingSetPages(f.c.fn.key)
		sp = tr.begin("snapshot.graft", req, root.id)
		snap, payloadBytes, err := snapshot.GraftWire(data, base)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		payload, err := uc.DecodePayload(payloadBytes)
		if err != nil {
			return err
		}
		snap.SetPayload(payload)
		sp = tr.begin("uc.deploy_prefetched", req, root.id)
		u, _, err := uc.DeployPrefetched(snap, nil, env, ws)
		tr.end(sp, "")
		if err != nil {
			return err
		}
		if err := u.Guest().Connect(); err != nil {
			return err
		}
		out, err := u.Guest().Invoke(f.c.args())
		tr.end(root, "")
		b.attempted++
		if err != nil || !outputOK(f.c, out) {
			b.failed++
			b.fail("restore replay %s: %v %s", f.c.fn.key, err, out)
		}
		u.Destroy()
		snap.Delete()
	}
	manifest, err := os.Stat(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	med := func(name, attr string) float64 { return median(tr.durations(name, attr)) }
	nfn := len(bs)
	fmt.Printf("uc, interp, snapshot (%d of the workload's functions: cold start, hot runs, export, restore)\n", nfn)
	b.report("uc.deploy_us", med("uc.deploy", ""), "us", fmt.Sprintf("uc.Deploy from the base runtime, n=%d", nfn))
	b.report("uc.deploy_prefetched_us", med("uc.deploy_prefetched", ""), "us", fmt.Sprintf("uc.DeployPrefetched of a grafted restore, n=%d", nfn))
	b.report("interp.import_compile_us", med("interp.import_compile", ""), "us", fmt.Sprintf("Runtime.ImportAndCompile, n=%d", nfn))
	b.report("interp.invoke_us", med("interp.invoke", "hot"), "us", fmt.Sprintf("Runtime.Invoke on a running UC, n=%d", 4*nfn))
	b.report("snapshot.capture_us", med("snapshot.capture", ""), "us", fmt.Sprintf("UC.Capture after compile, n=%d", nfn))
	b.report("snapshot.export_us", med("snapshot.export", ""), "us", fmt.Sprintf("Snapshot.Export, n=%d", nfn))
	b.report("snapshot.graft_us", med("snapshot.graft", ""), "us", fmt.Sprintf("snapshot.GraftWire onto the base, n=%d", nfn))
	b.report("snapshot.wire_bytes", median(wireBytes), "bytes", "median encoded function diff")
	fmt.Printf("snapstore (store holding %d entries, the workload's entry count)\n", entryCount(w))
	b.report("snapstore.get_us", med("snapstore.get", ""), "us", fmt.Sprintf("Store.Get, n=%d", nfn))
	b.report("snapstore.put_us", med("snapstore.put", ""), "us", fmt.Sprintf("Store.Put of unchanged bytes (the demote), n=%d", nfn))
	b.report("snapstore.put_new_us", med("snapstore.put_new", ""), "us", fmt.Sprintf("Store.Put of a new entry, n=%d", nfn))
	b.report("snapstore.manifest_bytes", float64(manifest.Size()), "bytes", "size of manifest.json")
	return nil
}

// timedPlacer wraps a Placer, timing and counting its decisions.
type timedPlacer struct {
	inner  sched.Placer
	tr     *tracer
	req    int64
	counts map[string]int64
}

func (p *timedPlacer) Name() string { return p.inner.Name() }

func (p *timedPlacer) Place(r sched.Request) sched.Placement {
	sp := p.tr.begin("sched.place", p.req, -1)
	pl := p.inner.Place(r)
	p.tr.end(sp, pl.Action.String())
	p.req++
	p.counts[pl.Action.String()]++
	return pl
}

// reportPlacements prints the placement metrics from the spans.
func (b *bench) reportPlacements(d []float64, counts map[string]int64, note string) {
	b.report("sched.place_us", median(d), "us", fmt.Sprintf("%s, n=%d", note, len(d)))
	for _, a := range []string{"cold", "route", "fetch", "migrate"} {
		b.report("sched.placements."+a, float64(counts[a]), "count", note)
	}
}

// tracePlacement runs the stream's keys through a LocalityPlacer over a
// four-member view, marking each placed key resident where it lands.
func (b *bench) tracePlacement(tr *tracer, calls []call) {
	view := sched.NewView(fabricMembers)
	for i := 0; i < fabricMembers; i++ {
		view.SetFabric(i, true)
	}
	nodes := make([]sched.NodeState, fabricMembers)
	for i := range nodes {
		nodes[i] = sched.NodeState{ID: i, Healthy: true}
	}
	counts := map[string]int64{}
	p := &timedPlacer{inner: &sched.LocalityPlacer{Replicate: true}, tr: tr, counts: counts}
	for _, c := range calls {
		pl := p.Place(sched.Request{Key: c.fn.key, Lineage: "fn/" + c.fn.key, Nodes: nodes, View: view})
		if pl.Action != sched.ActionRoute {
			view.MarkResident(pl.Node, c.fn.key)
		}
	}
	fmt.Println("sched (LocalityPlacer over the stream's keys, 4-member view)")
	b.reportPlacements(tr.durations("sched.place", ""), counts, "Placer.Place over the stream on a 4-member view")
	fmt.Println("cluster, fabric, faas (bypassed: this workload runs no cluster)")
	for _, m := range []string{"cluster.colds", "fabric.fetches", "fabric.layer_dedups", "faas.retries"} {
		b.report(m, 0, "count", "bypassed")
	}
}

// traceFabric runs the fabric-sim trial with a timing wrapper around
// its placer.
func (b *bench) traceFabric(tr *tracer) error {
	counts := map[string]int64{}
	p := &timedPlacer{inner: &seuss.LocalityPlacer{Replicate: true}, tr: tr, counts: counts}
	dp, _, err := b.deploy(p)
	if err != nil {
		return err
	}
	defer dp.remove()
	trial := fabricTrial(b.seed, fabricTrialN(b.seconds))
	cl := dp.sim.NewSeussDistCluster(dp.d)
	res := cl.RunTrial(trial)
	b.attempted += int64(trial.N)
	b.failed += int64(trial.N - res.Completed)
	if res.Completed != trial.N {
		b.fail("traced fabric trial: %d of %d completed", res.Completed, trial.N)
	}
	st := dp.d.Stats()
	fmt.Println("sched (timing wrapper around the trial's LocalityPlacer)")
	b.reportPlacements(tr.durations("sched.place", ""), counts, "Placer.Place inside the fabric-sim trial")
	fmt.Println("cluster, fabric, faas (fabric-sim trial counters)")
	b.report("cluster.colds", float64(st.ClusterColds), "count", "first-in-cluster cold starts")
	b.report("fabric.fetches", float64(st.Fetches), "count", "layer fetches over the fabric")
	b.report("fabric.layer_dedups", float64(st.LayerDedups), "count", "stack layers a fetch skipped by digest")
	b.report("faas.retries", float64(cl.Platform().Retries), "count", "platform re-submissions")
	return nil
}
