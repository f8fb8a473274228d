package cluster

import (
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/policy"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// policyTick advances the cluster's virtual clock to `at` and runs one
// lifecycle pass across every live member.
func policyTick(t *testing.T, c *Cluster, eng *sim.Engine, at time.Duration) core.TickStats {
	t.Helper()
	var ts core.TickStats
	eng.Go("reaper", func(p *sim.Proc) {
		if d := at - time.Duration(p.Now()); d > 0 {
			p.Sleep(d)
		}
		ts = c.PolicyTick(p)
	})
	eng.Run()
	return ts
}

// TestPolicyScaleToZeroUpdatesSchedulerView: when a member's reaper
// scales a lineage to zero, the scheduler view drops the residency
// entry — placement stops treating the member as a RAM holder — and
// the next invocation lukewarm-restores and re-registers it.
func TestPolicyScaleToZeroUpdatesSchedulerView(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes:     2,
		Placer:    &sched.LocalityPlacer{Replicate: true},
		SnapDir:   t.TempDir(),
		Lifecycle: policy.FixedKeepAlive{Window: 30 * time.Second},
	})
	req := core.Request{Key: "acct/fn", Source: workload.NOPSource, Args: "{}"}
	res, node := invoke(t, c, eng, req)
	if res.Path != core.PathCold {
		t.Fatalf("first path = %v, want cold", res.Path)
	}
	if h := c.Holders(req.Key); len(h) != 1 || h[0] != node {
		t.Fatalf("holders = %v, want [%d]", h, node)
	}

	ts := policyTick(t, c, eng, 40*time.Second)
	if ts.ExpiredUCs != 1 || ts.DemotedLineages != 1 {
		t.Fatalf("tick = %+v, want one UC expired and one lineage demoted", ts)
	}
	if h := c.Holders(req.Key); len(h) != 0 {
		t.Errorf("holders after scale-to-zero = %v, want none", h)
	}
	if m := c.Members()[node]; m.Node.CachedSnapshots() != 0 {
		t.Errorf("lineage still resident on node %d", node)
	}

	res2, node2 := invoke(t, c, eng, req)
	if res2.Path != core.PathLukewarm {
		t.Errorf("post-expiry path = %v, want lukewarm", res2.Path)
	}
	if res2.Output != res.Output {
		t.Errorf("restored output %q != original %q", res2.Output, res.Output)
	}
	if h := c.Holders(req.Key); len(h) != 1 || h[0] != node2 {
		t.Errorf("holders after restore = %v, want [%d]", h, node2)
	}
}

// TestPolicyTickSkipsDownMembers: a crashed member is skipped by the
// cluster pass — no nil-node panic, no view churn for state that died
// with the node — and lifecycle management resumes after restart.
func TestPolicyTickSkipsDownMembers(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes:     2,
		Placer:    &sched.LocalityPlacer{Replicate: true},
		SnapDir:   t.TempDir(),
		Lifecycle: policy.FixedKeepAlive{Window: 30 * time.Second},
	})
	req := core.Request{Key: "acct/fn", Source: workload.NOPSource, Args: "{}"}
	_, node := invoke(t, c, eng, req)
	if !c.Crash(node) {
		t.Fatal("crash refused")
	}
	if ts := policyTick(t, c, eng, 40*time.Second); ts != (core.TickStats{}) {
		t.Fatalf("tick over crashed holder = %+v, want zero", ts)
	}
	eng.Go("restart", func(p *sim.Proc) {
		if err := c.Restart(p, node); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	// The restarted node rebuilt from disk; serve the key again and let
	// the reaper expire it on the rebuilt member.
	invoke(t, c, eng, req)
	ts := policyTick(t, c, eng, 3*time.Minute)
	if ts.ExpiredUCs == 0 {
		t.Errorf("restarted member never resumed lifecycle management: %+v", ts)
	}
}
