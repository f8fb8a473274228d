package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"seuss/internal/cluster"
	"seuss/internal/faas"
	"seuss/internal/metrics"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// FailoverPhase is one measured window of the member-failure timeline.
type FailoverPhase struct {
	Phase  string
	PerSec float64
	P50    time.Duration
	P99    time.Duration
	Errors int
}

// FigureFailover is the member-failure lifecycle experiment: one
// cluster carries a steady workload through a member crash, the
// suspicion window, the repair pass, and the member's rejoin — the
// graceful-degradation claim measured as a throughput/latency timeline.
type FigureFailover struct {
	Phases []FailoverPhase
	Nodes  int
	N      int // invocations measured per phase
	C      int
	M      int // unique functions
	// RecoveryRatio is post-rejoin throughput over pre-crash throughput
	// (the acceptance bar is >= 0.9).
	RecoveryRatio float64
	// Stats is the cluster's final counter state: failovers, liveness
	// transitions, and repair outcomes accumulated across the timeline.
	Stats cluster.Stats
}

// FailoverConfig scales the experiment.
type FailoverConfig struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// N is invocations measured per phase (default 600).
	N int
	// C is worker threads (default: one per node).
	C int
	// M is the unique-function count (default 24) — small enough that
	// the crashed member's lineages are hot, so its loss is felt.
	M int
	// Seed fixes the random send orders.
	Seed int64
	// SnapDir roots the per-node snapshot tiers; empty uses a temporary
	// directory removed when the run finishes.
	SnapDir string
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.N == 0 {
		c.N = 600
	}
	if c.C == 0 {
		// Oversubscribed on purpose: holders must saturate so the hot
		// lineages replicate across tiers before the crash — that prior
		// replication is what the repair pass later restores from.
		c.C = 2 * c.Nodes
	}
	if c.M == 0 {
		c.M = 24
	}
	return c
}

// RunFailover executes the timeline on ONE cluster deployment — unlike
// the sweep experiments, the phases must share state, because the
// experiment is about what a crash does to state the cluster already
// has. Phase boundaries are the lifecycle events themselves: crash the
// victim after the first measurement, measure through the suspicion
// and repair window, then again after repair settles, then restart the
// victim and measure the rejoined cluster.
func RunFailover(cfg FailoverConfig) (FigureFailover, error) {
	cfg = cfg.withDefaults()
	if cfg.SnapDir == "" {
		dir, err := os.MkdirTemp("", "seuss-failover")
		if err != nil {
			return FigureFailover{}, err
		}
		defer os.RemoveAll(dir)
		cfg.SnapDir = dir
	}
	out := FigureFailover{Nodes: cfg.Nodes, N: cfg.N, C: cfg.C, M: cfg.M}

	eng := sim.NewEngine()
	cl, err := cluster.New(eng, cluster.Config{
		Nodes:      cfg.Nodes,
		Placer:     &sched.LocalityPlacer{Replicate: true},
		SnapDir:    cfg.SnapDir,
		MaxRetries: 3,
	})
	if err != nil {
		return out, err
	}
	plat := faas.NewCluster(eng, faas.NewSeussDistBackend(eng, cl))

	// CPU-bound bodies keep holders busy enough to trigger replication
	// and leave invocations in flight when the crash lands.
	fns := make([]workload.Spec, cfg.M)
	for i := range fns {
		fns[i] = workload.CPUSpec(fmt.Sprintf("fn%02d", i), 2)
	}
	seed := cfg.Seed
	phase := func(name string, warmup int) FailoverPhase {
		seed++ // distinct send order per phase, still deterministic
		res := workload.Trial{N: cfg.N, Fns: fns, C: cfg.C, Seed: seed, Warmup: warmup}.Run(eng, plat)
		sum := res.Summary()
		return FailoverPhase{Phase: name, PerSec: res.SteadyThroughput(), P50: sum.P50, P99: sum.P99, Errors: res.Errors}
	}

	// Pre-crash: warm the working set in, then measure the baseline.
	out.Phases = append(out.Phases, phase("pre-crash", 2*cfg.M))

	// Suspicion window: the victim dies mid-phase, under load — member 0
	// seeded the working set's cold starts, so it is a hot holder and
	// in-flight invocations fail over. The member walks suspect → dead
	// as heartbeats go missing, and the repair pass re-replicates its
	// orphaned lineages while the measurement continues.
	const victim = 0
	eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		// Land the crash while the victim is mid-invocation, so the
		// timeline exercises the in-flight failover path and not just
		// the placement skip. The wait is bounded: under this load the
		// victim picks up work within a few scheduling quanta.
		v := cl.Members()[victim]
		for i := 0; i < 1000 && v.Inflight() == 0; i++ {
			p.Sleep(100 * time.Microsecond)
		}
		cl.Crash(victim)
	})
	out.Phases = append(out.Phases, phase("suspicion", 0))

	// After repair: by now the victim must be declared dead and its
	// lineages repaired; measure the two-node steady state.
	if cl.Stats().DeadMembers == 0 {
		return out, fmt.Errorf("failover: victim not declared dead after the suspicion phase (rounds=%d)", cl.Stats().GossipRounds)
	}
	out.Phases = append(out.Phases, phase("after-repair", 0))

	// Rejoin: restart the victim over its surviving disk tier (eager
	// prewarm) and measure the recovered cluster.
	var restartErr error
	eng.Go("restart", func(p *sim.Proc) { restartErr = cl.Restart(p, victim) })
	eng.Run()
	if restartErr != nil {
		return out, restartErr
	}
	out.Phases = append(out.Phases, phase("after-rejoin", cfg.M))

	out.Stats = cl.Stats()
	if pre := out.Phases[0].PerSec; pre > 0 {
		out.RecoveryRatio = out.Phases[len(out.Phases)-1].PerSec / pre
	}
	return out, nil
}

// Render formats the timeline.
func (f FigureFailover) Render() string {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
	tab := metrics.Table{Header: []string{"Phase", "req/s", "p50 (ms)", "p99 (ms)", "errors"}}
	for _, p := range f.Phases {
		tab.AddRow(p.Phase, fmt.Sprintf("%.1f", p.PerSec), ms(p.P50), ms(p.P99), fmt.Sprintf("%d", p.Errors))
	}
	st := f.Stats
	return fmt.Sprintf("Member-failure lifecycle: %d-node cluster, %d fns (N=%d, C=%d per phase)\n\n", f.Nodes, f.M, f.N, f.C) +
		tab.String() +
		fmt.Sprintf("\npost-rejoin/pre-crash throughput: %.2fx\n", f.RecoveryRatio) +
		fmt.Sprintf("failovers=%d suspected=%d dead=%d revived=%d repairs: promoted=%d refetched=%d cold=%d failed=%d\n",
			st.Failovers, st.SuspectedMembers, st.DeadMembers, st.RevivedMembers,
			st.RepairsPromoted, st.RepairsRefetched, st.RepairsCold, st.RepairsFailed)
}

// TSV renders the timeline as tab-separated values for plotting.
func (f FigureFailover) TSV() string {
	var sb strings.Builder
	sb.WriteString("phase\trps\tp50_us\tp99_us\terrors\n")
	for _, p := range f.Phases {
		fmt.Fprintf(&sb, "%s\t%.2f\t%d\t%d\t%d\n", p.Phase, p.PerSec, p.P50.Microseconds(), p.P99.Microseconds(), p.Errors)
	}
	return sb.String()
}
