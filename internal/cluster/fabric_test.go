package cluster

import (
	"bytes"
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/fault"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// overload floods the cluster with n concurrent requests for one key,
// enough to push the holder past the placer's slack and trigger
// replication.
func overload(t *testing.T, c *Cluster, eng *sim.Engine, req core.Request, n int) {
	t.Helper()
	done := 0
	for i := 0; i < n; i++ {
		eng.Go("client", func(p *sim.Proc) {
			if _, _, err := c.Invoke(p, req); err != nil {
				t.Error(err)
				return
			}
			done++
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("served %d/%d", done, n)
	}
}

// TestFabricBaseLayerDedup is the dedup acceptance test: across an
// N-node fabric, the runtime base layer is stored exactly once per node
// (byte-identical by digest cluster-wide) and a replication fetch ships
// only the function's diff layer — never the base.
func TestFabricBaseLayerDedup(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 3, Placer: &sched.LocalityPlacer{Replicate: true}, SnapDir: t.TempDir()})
	req := core.Request{Key: "hotfn", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req) // cold once, on one node
	overload(t, c, eng, req, 8)

	st := c.Stats()
	if st.Fetches == 0 {
		t.Fatal("no layer fetches under concurrent load on the fabric")
	}
	if st.LayerDedups == 0 {
		t.Error("no layers deduped: the base was re-shipped")
	}

	base, ok := c.Members()[0].Store.Layer("runtime/nodejs")
	if !ok {
		t.Fatal("node 0 tier missing the seeded runtime layer")
	}
	if st.FetchedBytes <= 0 || st.FetchedBytes >= base.Size {
		t.Errorf("fetch moved %d bytes; want (0, %d): only the diff layer ships", st.FetchedBytes, base.Size)
	}

	// Every node stores the base exactly once, and all three copies are
	// byte-identical (same content digest) — counted in bytes on disk
	// via the tier's unique-file stats.
	for _, m := range c.Members() {
		copies := 0
		for _, l := range m.Store.Manifest() {
			if l.Digest == base.Digest {
				copies++
			}
		}
		if copies != 1 {
			t.Errorf("node %d holds %d copies of the base digest, want 1", m.ID, copies)
		}
		ts := m.Store.Stats()
		if ts.DiskFiles != len(m.Store.Manifest()) {
			t.Errorf("node %d: %d disk files for %d layers (unexpected duplication)", m.ID, ts.DiskFiles, len(m.Store.Manifest()))
		}
		if ts.DiskBytes < base.Size || ts.DiskBytes >= 2*base.Size {
			t.Errorf("node %d: %d disk bytes; want exactly one %d-byte base plus small diffs", m.ID, ts.DiskBytes, base.Size)
		}
	}

	// The replica is real: two nodes now hold the function in RAM.
	if len(c.Holders("hotfn")) < 2 {
		t.Errorf("holders = %v, want 2 after fetch", c.Holders("hotfn"))
	}
}

// TestFabricPlacementRoutesToHolder: an invocation whose lineage lives
// on node A routes to A, even when other nodes are equally idle.
func TestFabricPlacementRoutesToHolder(t *testing.T) {
	c, eng := newCluster(t, Config{Nodes: 3, Placer: &sched.LocalityPlacer{Replicate: true}, SnapDir: t.TempDir()})
	req := core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"}
	_, home := invoke(t, c, eng, req)
	for i := 0; i < 6; i++ {
		res, n := invoke(t, c, eng, req)
		if n != home {
			t.Fatalf("invocation %d placed on node %d, want holder %d", i, n, home)
		}
		if res.Path == core.PathCold {
			t.Fatalf("invocation %d went cold on the holder", i)
		}
	}
	if st := c.Stats(); st.ClusterColds != 1 {
		t.Errorf("cluster colds = %d, want 1", st.ClusterColds)
	}
}

// TestFabricFetchCorruptionFallsBackToHolder: a layer corrupted on the
// wire fails verification at the destination tier (codec CRC), the
// fetch is abandoned, and the holder serves — a failed fetch never
// fails an invocation.
func TestFabricFetchCorruptionFallsBackToHolder(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes: 2, Placer: &sched.LocalityPlacer{Replicate: true}, SnapDir: t.TempDir(),
		Faults: fault.Config{
			Schedule: map[fault.Point][]uint64{fault.PointSnapshotCorrupt: {1}},
		},
	})
	req := core.Request{Key: "hotfn", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req)
	overload(t, c, eng, req, 8)
	st := c.Stats()
	if st.FailedFetches != 1 {
		t.Errorf("FailedFetches = %d, want 1 (scheduled corruption)", st.FailedFetches)
	}
	if st.LayerDedups == 0 {
		t.Error("base layer still deduped before the corrupt diff, want >= 1")
	}
}

// TestFabricFetchDropRetransmits: an injected fetch packet drop costs
// one retransmit RTT and the transfer still completes.
func TestFabricFetchDropRetransmits(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes: 2, Placer: &sched.LocalityPlacer{Replicate: true}, SnapDir: t.TempDir(),
		Faults: fault.Config{
			Schedule: map[fault.Point][]uint64{fault.PointFetchDrop: {1}},
		},
	})
	req := core.Request{Key: "hotfn", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req)
	overload(t, c, eng, req, 8)
	st := c.Stats()
	if st.FetchRetransmits != 1 {
		t.Errorf("FetchRetransmits = %d, want 1", st.FetchRetransmits)
	}
	if st.Fetches == 0 {
		t.Error("dropped packet aborted the fetch; want retransmit + completion")
	}
	if st.FailedFetches != 0 {
		t.Errorf("FailedFetches = %d after a plain drop, want 0", st.FailedFetches)
	}
}

// TestFabricGossipDropKeepsViewStale: a dropped manifest exchange
// leaves that member's view stale for the round; the round still
// completes and the next one recovers.
func TestFabricGossipDropKeepsViewStale(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes: 2, GossipInterval: time.Nanosecond, SnapDir: t.TempDir(),
		Faults: fault.Config{
			Schedule: map[fault.Point][]uint64{fault.PointGossipDrop: {1}},
		},
	})
	req := core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, req)
	st := c.Stats()
	if st.GossipRounds != 1 || st.GossipDrops != 1 {
		t.Fatalf("rounds = %d, drops = %d; want 1, 1", st.GossipRounds, st.GossipDrops)
	}
	// Node 0's report was dropped, node 1's landed: half the view
	// refreshed.
	if g := c.View().Generation(); g != 1 {
		t.Errorf("view generation = %d, want 1 (one member refreshed)", g)
	}
	// The next invocation gossips again (1 ns interval) with no
	// scheduled drop left; both members refresh.
	invoke(t, c, eng, req)
	st = c.Stats()
	if st.GossipRounds < 2 || st.GossipDrops != 1 {
		t.Errorf("rounds = %d, drops = %d after recovery; want >= 2, 1", st.GossipRounds, st.GossipDrops)
	}
	if g := c.View().Generation(); g < 3 {
		t.Errorf("view generation = %d, want >= 3 after a full round", g)
	}
}

// TestStaleDirectoryPrunedAndCounted: when a holder evicts a snapshot
// between gossip rounds, the placement verifier catches the lie, counts
// it, prunes the entry, and re-places the request — which then recovers
// (cold again) instead of failing.
func TestStaleDirectoryPrunedAndCounted(t *testing.T) {
	cfg := Config{Nodes: 2, GossipInterval: time.Hour} // gossip never repairs the view
	cfg.NodeConfig = core.DefaultConfig()
	cfg.NodeConfig.MemoryBytes = 170 << 20
	c, eng := newCluster(t, cfg)

	victim := core.Request{Key: "victim", Source: workload.NOPSource, Args: "{}"}
	invoke(t, c, eng, victim)
	// Flood both nodes with other functions to force eviction of
	// "victim" everywhere; the hour-long gossip interval means the view
	// still lists the original holder.
	for i := 0; i < 40; i++ {
		req := core.Request{Key: "filler" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Source: workload.NOPSource, Args: "{}"}
		invoke(t, c, eng, req)
	}
	res, _ := invoke(t, c, eng, victim)
	if res.Output == "" {
		t.Error("stale directory broke the invocation")
	}
	st := c.Stats()
	if st.StaleDirectory == 0 {
		t.Error("stale entry served without being counted and pruned")
	}
	if len(c.Holders("victim")) != 1 {
		t.Errorf("holders after prune + re-serve = %v, want exactly the new server", c.Holders("victim"))
	}
}

// TestFabricShipsWorkingSetSidecar: the working-set record a holder
// harvests on its first lukewarm restore rides the replication fetch,
// so the replica's own first lukewarm restore prefetches instead of
// re-recording.
func TestFabricShipsWorkingSetSidecar(t *testing.T) {
	c, eng := newCluster(t, Config{
		Nodes: 2, Placer: &sched.LocalityPlacer{Replicate: true}, SnapDir: t.TempDir(), RejoinLazy: true,
	})
	req := core.Request{Key: "hotfn", Source: workload.NOPSource, Args: "{}"}
	_, home := invoke(t, c, eng, req) // cold on the home node
	var h *Member
	for _, m := range c.Members() {
		if m.ID == home {
			h = m
		}
	}

	// Persist the lineage, lose the home node's RAM, and rejoin lazily:
	// the next request restores lukewarm and records the working set.
	if h.Node.FlushSnapshots(nil) == 0 {
		t.Fatal("holder flushed nothing")
	}
	restart := func(id int) {
		if !c.Crash(id) {
			t.Fatalf("member %d would not crash", id)
		}
		var err error
		eng.Go("ops", func(p *sim.Proc) { err = c.Restart(p, id) })
		eng.Run()
		if err != nil {
			t.Fatalf("restart member %d: %v", id, err)
		}
	}
	restart(home)
	res, n2 := invoke(t, c, eng, req)
	if n2 != home || res.Path != core.PathLukewarm {
		t.Fatalf("recording restore: node=%d path=%v, want holder %d lukewarm", n2, res.Path, home)
	}
	if st := h.Node.Stats(); st.WSRecorded != 1 {
		t.Fatalf("holder recorded %d working sets, want 1", st.WSRecorded)
	}
	layer, ok := h.Store.Layer("fn/hotfn")
	if !ok {
		t.Fatal("holder tier missing the fn diff layer")
	}
	rec, ok := h.Store.WorkingSetForDigest(layer.Digest)
	if !ok {
		t.Fatal("holder tier missing the sidecar the harvest just wrote")
	}

	// Replicate under load; the sidecar piggybacks on the layer fetch.
	overload(t, c, eng, req, 8)
	if c.Stats().Fetches == 0 {
		t.Fatal("no replication fetch; sidecar shipping untested")
	}
	var replica *Member
	for _, m := range c.Members() {
		if m.ID == home {
			continue
		}
		if got, ok := m.Store.WorkingSetForDigest(layer.Digest); ok {
			if !bytes.Equal(got, rec) {
				t.Fatalf("shipped sidecar differs: %d vs %d bytes", len(got), len(rec))
			}
			replica = m
		}
	}
	if replica == nil {
		t.Fatal("no replica received the working-set sidecar")
	}

	// The replica's own first lukewarm restore replays the shipped
	// record: pages prefetch, nothing is re-recorded.
	if replica.Node.FlushSnapshots(nil) == 0 {
		t.Fatal("replica flushed nothing")
	}
	restart(replica.ID)
	var rres core.Result
	var rerr error
	eng.Go("client", func(p *sim.Proc) {
		rres, rerr = replica.Node.Invoke(p, req)
	})
	eng.Run()
	if rerr != nil || rres.Path != core.PathLukewarm {
		t.Fatalf("replica restore: path=%v err=%v", rres.Path, rerr)
	}
	st := replica.Node.Stats()
	if st.WSPrefetchedPages == 0 {
		t.Errorf("replica restored without prefetching the shipped record: %+v", st)
	}
	if st.WSRecorded != 0 {
		t.Errorf("replica re-recorded over the shipped record: %+v", st)
	}
}
