package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"seuss"
)

// Phase numbers seed each phase's own call stream.
const (
	phaseWarmup   = 0 // + set-up index
	phaseClosed   = 10
	phaseOpen     = 11
	phaseSchedule = 12
	phaseReplay   = 13
	phaseLatency  = 14
)

// lateShare bounds the generator's own lateness: a run whose median
// lateness exceeds this share of the p50 it measures has timed the
// generator, not the server, and fails. (The lateness tail is printed
// too; on a 2-CPU box it is the server's own CPU bursts delaying the
// generator's wake-up, and those delays are inside the from-due
// latencies by construction.)
const lateShare = 0.1

// e2eMetrics are the metrics the --trace 0 JSON line carries, on every
// workload (BENCHMARK.json end_to_end). p99_ms, fail_ratio,
// virt_p99_ms, sim_inv_per_s and virt_rps are printed but not carried:
// see perfbench/README.md.
var e2eMetrics = []string{"setup_s", "throughput_rps", "p50_ms", "cpu_us_per_req", "rss_mb"}

// runHTTP measures one HTTP workload end to end: set-ups on fresh
// nodes, then, on the last one, the open-loop rounds followed by the
// closed-loop rounds. p50 and throughput are those of the best quartile
// of rounds: on a shared 2-vCPU VM other tenants take CPU time away
// (10–20% steal has been seen) in bursts, and a round they hit only
// reads slower. A slower program makes every round slower, so the best
// quartile moves with it, while a burst of steal must cover three
// rounds in four to move it. (The very best round is not used: a short
// round that a GC cycle happens to miss reads lucky.) The open loops
// run first, so their latency and memory are not those of the backlog
// a saturating closed loop leaves behind.
func (b *bench) runHTTP(w *workload) error {
	var setupS, healthyS []float64
	var phases []phase
	var n *node
	for i := 0; i < b.setups; i++ {
		t0 := time.Now()
		nd, err := b.startNode(w)
		if err != nil {
			return err
		}
		healthyS = append(healthyS, time.Since(t0).Seconds())
		calls := w.gen(b.seed, phaseWarmup+i).warmupCalls(w.warmup)
		for pass := 1; pass <= w.warmPasses && err == nil; pass++ {
			if pass > 1 {
				_, err = b.quiesce(nd, w)
			}
			warm := runList(nd, fmt.Sprintf("warm-up %d.%d", i+1, pass), calls)
			b.count(warm)
			phases = append(phases, warm)
			if pass > 1 || w.path == "cold" {
				b.checkPaths(w, warm)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil && i == b.setups-1 {
			n = nd
			break
		}
		b.checkStats(nd)
		if err := nd.stop(); err != nil {
			b.fail("%v", err)
		}
		if err != nil {
			return err
		}
	}
	defer func() {
		if err := n.stop(); err != nil {
			b.fail("%v", err)
		}
	}()
	// The warm-up leaves every function idle; under a lifecycle policy
	// the reaper's next ticks demote them all. Let that backlog drain so
	// the first round does not pay for it.
	drain, err := b.quiesce(n, w)
	if err != nil {
		return err
	}

	total := time.Duration(b.seconds) * time.Second
	rounds := w.rounds
	closedD := time.Duration(float64(total) * w.closed / float64(rounds))
	closedN := int(w.closedRate*closedD.Seconds()) + 1
	openD := total/time.Duration(rounds) - closedD
	og, sched := w.gen(b.seed, phaseOpen), phaseRand(b.seed, phaseSchedule)
	var open []phase
	var p50s []float64
	if err := resetPeakRSS(n.pid()); err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		due := poissonSchedule(sched, w.rate, openD)
		calls := make([]call, len(due))
		for i := range calls {
			calls[i] = og.next()
		}
		op := openLoop(n, calls, due)
		b.count(op)
		open = append(open, op)
		p50s = append(p50s, quantile(op.ms(func(r record) time.Duration { return r.fromDue }), 0.5))
	}
	rss, err := peakRSSMB(n.pid())
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}

	cg := w.gen(b.seed, phaseClosed)
	var closed []phase
	var thr []float64
	var cpu time.Duration
	var closedOK int
	for r := 0; r < rounds; r++ {
		c0, err := cpuTime(n.pid())
		if err != nil {
			return err
		}
		cp := closedLoop(n, cg, closedN)
		// The reaper work a closed loop leaves behind (the demotes of
		// its last ticks) is charged to its CPU, and drained before the
		// next round starts.
		d, err := b.quiesce(n, w)
		if err != nil {
			return err
		}
		drain += d
		c1, err := cpuTime(n.pid())
		if err != nil {
			return err
		}
		cpu += c1 - c0
		b.count(cp)
		closed = append(closed, cp)
		closedOK += cp.okCount()
		thr = append(thr, float64(cp.okCount())/cp.elapsed.Seconds())
	}
	measured := append(append([]phase{}, open...), closed...)
	phases = append(phases, measured...)
	b.checkIDs(phases)
	b.checkPaths(w, measured...)
	b.checkStats(n)

	var fromDue, fromSend, late, virt []float64
	for _, op := range open {
		fromDue = append(fromDue, op.ms(func(r record) time.Duration { return r.fromDue })...)
		fromSend = append(fromSend, op.ms(func(r record) time.Duration { return r.svc })...)
		late = append(late, op.lateness()...)
	}
	for _, p := range measured {
		for _, r := range p.records {
			if r.ok {
				virt = append(virt, r.virtMS)
			}
		}
	}
	fmt.Printf("end-to-end (%s: %d shards, %d connections; %d open-loop rounds of %.2fs at %.0f req/s Poisson, then %d closed-loop rounds of %d calls)\n",
		w.name, conns, conns, rounds, openD.Seconds(), w.rate, rounds, closedN)
	b.report("setup_s", median(setupS), "s", fmt.Sprintf("median of %d launches: exec → /healthz 200 → %d warm-up pass(es) of %d calls", len(setupS), w.warmPasses, len(phases[0].records)))
	fmt.Printf("  set-up split: exec → /healthz 200 median %.4fs, the rest is the warm-up\n", median(healthyS))
	fmt.Printf("  rounds: throughput_rps %s\n          p50_ms %s\n", roundList(thr), roundList(p50s))
	b.report("throughput_rps", quantile(thr, 0.75), "req/s", fmt.Sprintf("closed loop, %d connections, upper quartile of %d rounds, n=%d", conns, rounds, closedOK))
	b.report("cpu_us_per_req", usOf(cpu)/float64(closedOK), "us", fmt.Sprintf("seuss-node utime+stime over the closed loops and the reaper drains after them ÷ requests, n=%d", closedOK))
	if w.tick > 0 {
		fmt.Printf("  reaper drains: %.3fs in total (after the warm-up and each closed loop)\n", drain.Seconds())
	}
	p50 := quantile(p50s, 0.25)
	b.report("p50_ms", p50, "ms", fmt.Sprintf("open loop, from due time, lower quartile of %d round medians, n=%d", rounds, len(fromDue)))
	nd := len(fromDue)
	b.report("p99_ms", quantile(fromDue, 0.99), "ms", fmt.Sprintf("open loop, from due time, n=%d (%d beyond p99)", nd, nd/100))
	b.report("open.p50_from_send_ms", quantile(fromSend, 0.5), "ms", fmt.Sprintf("open loop, from send, n=%d", len(fromSend)))
	lateP50 := finite(quantile(late, 0.5))
	b.report("gen.late_p50_ms", lateP50, "ms", fmt.Sprintf("send − due on a connection idle at the due time, n=%d", len(late)))
	b.report("gen.late_p99_ms", finite(quantile(late, 0.99)), "ms", fmt.Sprintf("same, n=%d", len(late)))
	if lateP50 > lateShare*p50 {
		b.fail("generator ran late: median lateness %.3f ms > %.2f × p50 %.3f ms", lateP50, lateShare, p50)
	}
	b.report("rss_mb", rss, "MB", "seuss-node peak RSS (VmHWM) over the open loops")
	b.report("virt_p99_ms", quantile(virt, 0.99), "ms", fmt.Sprintf("node-reported virtual latency, n=%d", len(virt)))
	b.reportFailRatio()
	return nil
}

// quiesce waits until a node's lifecycle reaper has nothing left to do:
// no idle UC and the same resident snapshot count over a whole tick. It
// returns at once for a workload without a policy.
func (b *bench) quiesce(n *node, w *workload) (time.Duration, error) {
	if w.tick == 0 {
		return 0, nil
	}
	start := time.Now()
	prev := int64(-1)
	for time.Since(start) < time.Minute {
		var st nodeStats
		if err := n.getJSON("/stats", &st); err != nil {
			return 0, fmt.Errorf("/stats: %w", err)
		}
		if st.IdleUCs == 0 && st.Cached == prev {
			return time.Since(start), nil
		}
		prev = st.Cached
		time.Sleep(w.tick)
	}
	return 0, fmt.Errorf("reaper did not drain within a minute")
}

// reportFailRatio prints failed ÷ attempted over every phase so far.
func (b *bench) reportFailRatio() {
	ratio := 0.0
	if b.attempted > 0 {
		ratio = float64(b.failed) / float64(b.attempted)
	}
	b.report("fail_ratio", ratio, "ratio", fmt.Sprintf("%d failed of %d attempted, all phases", b.failed, b.attempted))
}

// checkStats fails the run on /stats errors or a breaker not closed.
func (b *bench) checkStats(n *node) {
	var st nodeStats
	if err := n.getJSON("/stats", &st); err != nil {
		b.fail("/stats: %v", err)
		return
	}
	for _, p := range st.problems() {
		b.failed++
		b.fail("%s", p)
	}
}

// fabricConfig is the fabric-sim deployment: four members over
// per-member disk tiers under dir, locality placement with fabric
// replication.
func fabricConfig(dir string, placer seuss.Placer) seuss.DistConfig {
	if placer == nil {
		placer = &seuss.LocalityPlacer{Replicate: true}
	}
	return seuss.DistConfig{
		Nodes:      fabricMembers,
		NodeConfig: seuss.NodeDefaults(),
		Placer:     placer,
		SnapDir:    dir,
	}
}

// fabricTrial is the closed-loop trial fabric-sim runs: 1024 NOPs, C=4,
// n measured invocations after one warm-up call per function.
func fabricTrial(seed int64, n int) seuss.Trial {
	fns := make([]seuss.Function, fabricFns)
	for i := range fns {
		fns[i] = seuss.NOP(i)
	}
	return seuss.Trial{N: n, Fns: fns, C: fabricC, Seed: seed, Warmup: fabricFns}
}

// fabricTrialN is the measured invocation count of a fabric-sim trial:
// fixed by --seconds alone, so the virtual result is a function of
// (seed, seconds). It stops growing at 20 seconds: the benchmark
// process's memory grows with the trial (1.3 GB at 5000 invocations).
func fabricTrialN(seconds int) int { return 250 * min(seconds, 20) }

type deployment struct {
	sim *seuss.Simulation
	d   *seuss.DistCluster
	dir string
}

func (dp deployment) remove() { os.RemoveAll(dp.dir) }

// deploy builds one fabric-sim cluster over a fresh tier directory.
func (b *bench) deploy(placer seuss.Placer) (deployment, time.Duration, error) {
	dir, err := b.tempDir("fabric")
	if err != nil {
		return deployment{}, 0, err
	}
	t0 := time.Now()
	sim := seuss.New()
	d, err := sim.NewDistCluster(fabricConfig(dir, placer))
	el := time.Since(t0)
	if err != nil {
		os.RemoveAll(dir)
		return deployment{}, 0, fmt.Errorf("fabric cluster: %w", err)
	}
	return deployment{sim: sim, d: d, dir: dir}, el, nil
}

// trialOutcome is one fabric-sim trial's virtual result and wall time.
type trialOutcome struct {
	res  seuss.TrialResult
	wall time.Duration
}

func (t trialOutcome) virtRPS() float64 { return t.res.SteadyThroughput() }
func (t trialOutcome) virtP99() float64 { return msOf(seuss.Summarize(t.res.Latencies).P99) }

// runTrial runs the fabric-sim trial on a deployment and counts its
// measured invocations.
func (b *bench) runTrial(dp deployment, trial seuss.Trial) trialOutcome {
	t0 := time.Now()
	res := dp.sim.NewSeussDistCluster(dp.d).RunTrial(trial)
	out := trialOutcome{res: res, wall: time.Since(t0)}
	b.attempted += int64(trial.N)
	b.failed += int64(res.Errors)
	if res.Errors > 0 {
		b.fail("fabric trial: %d errors", res.Errors)
	}
	if lost := trial.N - res.Completed - res.Errors; lost != 0 {
		b.failed += int64(lost)
		b.fail("fabric trial: %d of %d invocations never completed", lost, trial.N)
	}
	return out
}

// invokeChecked is one sequential invocation through the DistCluster
// facade, with its output checked.
func (b *bench) invokeChecked(d *seuss.DistCluster, c call) (seuss.Invocation, bool) {
	b.attempted++
	inv, _, err := d.InvokeSync(c.fn.key, c.fn.source, c.args())
	if err != nil {
		b.failed++
		b.fail("fabric invoke %s: %v", c.fn.key, err)
		return inv, false
	}
	if !outputOK(c, inv.Output) {
		b.failed++
		b.fail("fabric invoke %s: wrong output %s", c.fn.key, inv.Output)
		return inv, false
	}
	return inv, true
}

// outputOK checks an invocation's output string against the call.
func outputOK(c call, out string) bool {
	var o struct {
		OK     bool     `json:"ok"`
		Result fnResult `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &o); err != nil {
		return false
	}
	return c.check(o.OK, o.Result)
}

// fabricTrials is how many fresh deployments run the fabric-sim trial
// in one run; their virtual results must all match exactly.
const fabricTrials = 3

// runFabric measures fabric-sim: fresh deployments each run the same
// closed-loop trial; the first then serves sequential invocations for
// per-invocation wall latency and closed-loop throughput. Each
// deployment is released before the next is built, so rss_mb is one
// cluster's peak.
func (b *bench) runFabric(w *workload) error {
	var setupS, simRates, cpuPerInv []float64
	trial := fabricTrial(b.seed, fabricTrialN(b.seconds))
	invs := trial.N + trial.Warmup
	var trials []trialOutcome
	var lat []float64
	var seqElapsed time.Duration
	for i := 0; i < b.setups; i++ {
		dp, el, err := b.deploy(nil)
		if err != nil {
			return err
		}
		setupS = append(setupS, el.Seconds())
		if i < fabricTrials {
			c0, err := cpuTime(os.Getpid())
			if err != nil {
				return err
			}
			t := b.runTrial(dp, trial)
			c1, err := cpuTime(os.Getpid())
			if err != nil {
				return err
			}
			trials = append(trials, t)
			simRates = append(simRates, float64(invs)/t.wall.Seconds())
			cpuPerInv = append(cpuPerInv, usOf(c1-c0)/float64(invs))
		}
		if i == 0 {
			g := w.gen(b.seed, phaseLatency)
			start := time.Now()
			stop := start.Add(time.Duration(float64(b.seconds) * 0.4 * float64(time.Second)))
			for time.Now().Before(stop) {
				c := g.next()
				t0 := time.Now()
				if _, ok := b.invokeChecked(dp.d, c); ok {
					lat = append(lat, msOf(time.Since(t0)))
				}
			}
			seqElapsed = time.Since(start)
		}
		dp.remove()
		release()
	}
	t1 := trials[0]
	for _, t := range trials[1:] {
		if t.virtRPS() != t1.virtRPS() || t.virtP99() != t1.virtP99() {
			b.failed++
			b.fail("virtual clock drifted between two runs of seed %d: virt_rps %v vs %v, virt_p99_ms %v vs %v",
				b.seed, t1.virtRPS(), t.virtRPS(), t1.virtP99(), t.virtP99())
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}

	fmt.Printf("end-to-end (%s: %d members, C=%d, %d NOP functions, %d trials of N=%d + %d warm-up)\n",
		w.name, fabricMembers, fabricC, fabricFns, len(trials), trial.N, trial.Warmup)
	nl := len(lat)
	b.report("setup_s", median(setupS), "s", fmt.Sprintf("median of %d cluster constructions", len(setupS)))
	b.report("throughput_rps", float64(nl)/seqElapsed.Seconds(), "req/s", fmt.Sprintf("sequential DistCluster.InvokeSync calls on the warm cluster (closed loop, 1 caller), n=%d", nl))
	b.report("cpu_us_per_req", median(cpuPerInv), "us", fmt.Sprintf("process utime+stime per simulated invocation, median of %d trials of %d", len(trials), invs))
	b.report("sim_inv_per_s", median(simRates), "inv/s", fmt.Sprintf("simulated invocations (warm-up + measured) per wall second, median of %d trials of %d", len(trials), invs))
	b.report("p50_ms", quantile(lat, 0.5), "ms", fmt.Sprintf("wall time of one DistCluster.InvokeSync on the warm cluster, n=%d", nl))
	b.report("p99_ms", quantile(lat, 0.99), "ms", fmt.Sprintf("same, n=%d (%d beyond p99)", nl, nl/100))
	b.report("rss_mb", rss, "MB", "benchmark process VmHWM (the cluster runs in-process)")
	b.report("virt_rps", t1.virtRPS(), "req/s", fmt.Sprintf("trial steady virtual throughput (Figure 4 quantity); pinned equal across %d trials", len(trials)))
	b.report("virt_p99_ms", t1.virtP99(), "ms", fmt.Sprintf("trial virtual latency p99, n=%d; pinned equal across %d trials", len(t1.res.Latencies), len(trials)))
	b.reportFailRatio()
	return nil
}

// release returns a dropped deployment's memory before the next is
// built.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func roundList(xs []float64) string {
	out := ""
	for _, x := range xs {
		out += fmt.Sprintf(" %.4g", x)
	}
	return "[" + out[1:] + "]"
}
