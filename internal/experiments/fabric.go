package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"seuss/internal/cluster"
	"seuss/internal/faas"
	"seuss/internal/metrics"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// FabricPoint is one trial of the placement experiment: a unique
// function count and the throughput a multi-node cluster sustained
// under each placement policy.
type FabricPoint struct {
	SetSize      int
	LocalPerSec  float64 // locality-blind, node-local snapshots only
	FabricPerSec float64 // locality-aware over the snapshot fabric
	LocalColds   int64
	FabricColds  int64
	Fetches      int64 // fabric layer transfers
	LayerDedups  int64 // layers skipped because the digest already existed
	RemoteRoutes int64 // fabric requests forwarded to a holder
}

// FigureFabric is the Figure 4 sweep re-run on a DR-SEUSS cluster:
// throughput vs unique-function count for local-only placement (each
// node cold-starts its own copy) against locality-aware placement over
// the content-addressed snapshot fabric (cold at most once per
// cluster, bases deduped by digest).
type FigureFabric struct {
	Points []FabricPoint
	Nodes  int
	N      int
	C      int
}

// FabricConfig scales the experiment.
type FabricConfig struct {
	// SetSizes lists the unique-function counts (default 64…1024
	// doubling — the knee of the Figure 4 curve).
	SetSizes []int
	// Nodes is the cluster size (default 4).
	Nodes int
	// N is invocations measured per trial (default 800).
	N int
	// C is worker threads (default: one per node). The dist backend
	// has one shim lane per member, so C beyond Nodes measures
	// front-door queueing — identical in both arms — instead of
	// placement.
	C int
	// Seed fixes the random send orders.
	Seed int64
	// SnapDir roots the fabric arm's per-node snapshot tiers; empty
	// uses a temporary directory removed when the sweep finishes.
	SnapDir string
}

func (c FabricConfig) withDefaults() FabricConfig {
	if len(c.SetSizes) == 0 {
		for m := 64; m <= 1024; m *= 2 {
			c.SetSizes = append(c.SetSizes, m)
		}
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.N == 0 {
		c.N = 800
	}
	if c.C == 0 {
		c.C = c.Nodes
	}
	return c
}

// RunFabric executes the sweep: each arm of each trial runs on a fresh
// cluster deployment, exactly as the paper re-deploys per trial.
func RunFabric(cfg FabricConfig) (FigureFabric, error) {
	cfg = cfg.withDefaults()
	if cfg.SnapDir == "" {
		dir, err := os.MkdirTemp("", "seuss-fabric")
		if err != nil {
			return FigureFabric{}, err
		}
		defer os.RemoveAll(dir)
		cfg.SnapDir = dir
	}
	out := FigureFabric{Nodes: cfg.Nodes, N: cfg.N, C: cfg.C}

	run := func(trial workload.Trial, c cluster.Config) (workload.TrialResult, cluster.Stats, error) {
		eng := sim.NewEngine()
		cl, err := cluster.New(eng, c)
		if err != nil {
			return workload.TrialResult{}, cluster.Stats{}, err
		}
		res := trial.Run(eng, faas.NewCluster(eng, faas.NewSeussDistBackend(eng, cl)))
		return res, cl.Stats(), nil
	}

	for _, m := range cfg.SetSizes {
		fns := make([]workload.Spec, m)
		for i := range fns {
			fns[i] = workload.NOPSpec(i)
		}
		trial := workload.Trial{N: cfg.N, Fns: fns, C: cfg.C, Seed: cfg.Seed, Warmup: steadyWarmup(m)}

		// Local-only arm: no fabric, no locality — the placer spreads by
		// load alone, so every node pays its own cold starts.
		resL, stL, err := run(trial, cluster.Config{
			Nodes:  cfg.Nodes,
			Placer: &sched.LeastLoadedPlacer{},
		})
		if err != nil {
			return out, err
		}

		// Fabric arm: locality-aware placement over per-node
		// content-addressed tiers; replication fetches missing layers.
		resF, stF, err := run(trial, cluster.Config{
			Nodes:   cfg.Nodes,
			Placer:  &sched.LocalityPlacer{Replicate: true},
			SnapDir: filepath.Join(cfg.SnapDir, fmt.Sprintf("m%d", m)),
		})
		if err != nil {
			return out, err
		}

		out.Points = append(out.Points, FabricPoint{
			SetSize:      m,
			LocalPerSec:  resL.SteadyThroughput(),
			FabricPerSec: resF.SteadyThroughput(),
			LocalColds:   stL.ClusterColds,
			FabricColds:  stF.ClusterColds,
			Fetches:      stF.Fetches,
			LayerDedups:  stF.LayerDedups,
			RemoteRoutes: stF.RemoteRoutes,
		})
	}
	return out, nil
}

// Render formats the sweep as the fabric-placement series.
func (f FigureFabric) Render() string {
	tab := metrics.Table{Header: []string{"Set Size (M)", "local (req/s)", "fabric (req/s)", "fabric/local", "local colds", "fabric colds", "routes", "fetches", "dedups"}}
	for _, p := range f.Points {
		ratio := 0.0
		if p.LocalPerSec > 0 {
			ratio = p.FabricPerSec / p.LocalPerSec
		}
		tab.AddRow(
			fmt.Sprintf("%d", p.SetSize),
			fmt.Sprintf("%.1f", p.LocalPerSec),
			fmt.Sprintf("%.1f", p.FabricPerSec),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%d", p.LocalColds),
			fmt.Sprintf("%d", p.FabricColds),
			fmt.Sprintf("%d", p.RemoteRoutes),
			fmt.Sprintf("%d", p.Fetches),
			fmt.Sprintf("%d", p.LayerDedups),
		)
	}
	return fmt.Sprintf("Fabric placement: %d-node cluster throughput (N=%d, C=%d per trial)\n\n", f.Nodes, f.N, f.C) + tab.String()
}

// TSV renders the series as tab-separated values for plotting.
func (f FigureFabric) TSV() string {
	var sb strings.Builder
	sb.WriteString("set_size\tlocal_rps\tfabric_rps\tlocal_colds\tfabric_colds\troutes\tfetches\tdedups\n")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%d\t%.2f\t%.2f\t%d\t%d\t%d\t%d\t%d\n",
			p.SetSize, p.LocalPerSec, p.FabricPerSec, p.LocalColds, p.FabricColds, p.RemoteRoutes, p.Fetches, p.LayerDedups)
	}
	return sb.String()
}
