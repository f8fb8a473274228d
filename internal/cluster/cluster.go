// Package cluster implements the paper's §9 future work: DR-SEUSS, a
// distributed and replicated global snapshot cache spanning compute
// nodes.
//
// The enabling properties are exactly the ones §9 names: snapshots are
// read-only, and every UC is configured with an identical network
// identity, so a snapshot captured on one node can be cloned and
// deployed on any node with the same base runtime snapshot. Placement
// lives in internal/sched: the cluster feeds the placer a gossiped view
// of which node holds which lineage, verifies its decision against
// ground truth (pruning stale entries), and executes the mechanics —
// route to a holder or, when both ends run the content-addressed
// snapshot fabric (Config.SnapDir), fetch only the stack layers the
// destination is missing. Identical base layers dedupe by FNV-64a
// digest and are stored once per node, so a function is cold at most
// once per *cluster* and its runtime image ships zero times.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"seuss/internal/core"
	"seuss/internal/fault"
	"seuss/internal/mem"
	"seuss/internal/metrics"
	"seuss/internal/policy"
	"seuss/internal/sched"
	"seuss/internal/sim"
	"seuss/internal/snapstore"
	"seuss/internal/trace"
)

// ErrNoNodes is returned when the cluster has no members.
var ErrNoNodes = errors.New("cluster: no nodes")

// ErrMemberDown marks an attempt that landed on an unreachable member
// (crashed or partitioned). It is always wrapped in fault.Contain: the
// retry path fails over to a live member instead of surfacing it.
var ErrMemberDown = errors.New("cluster: member down")

// Config parameterizes the cluster.
type Config struct {
	// Nodes is the member count.
	Nodes int
	// NodeConfig configures each member identically ("similar hardware
	// profiles").
	NodeConfig core.Config
	// Placer decides where each invocation runs (default: a route-only
	// sched.LocalityPlacer; &sched.LocalityPlacer{Replicate: true}
	// replicates by layer fetch when a holder saturates — the
	// replicated cache of §9).
	Placer sched.Placer
	// Lifecycle is the per-function lifecycle policy — keep-alive,
	// scale-to-zero, predictive prewarm — cloned into every member
	// (policies accumulate per-key history, so members never share an
	// instance). Lifecycle transitions a member's reaper makes are
	// reflected into the scheduler view, keeping placement aware of
	// scaled-to-zero lineages. Nil disables lifecycle management.
	Lifecycle policy.Policy
	// LinkBandwidth is the inter-node network bandwidth
	// (default 10 Gb/s, the paper's testbed fabric).
	LinkBandwidth float64 // bytes/second
	// LinkRTT is the inter-node round trip (default 150 µs).
	LinkRTT time.Duration
	// GossipInterval is how often (in virtual time) members exchange
	// snapshot manifests with the scheduler view (default 10 ms). The
	// exchange is lazy — it piggybacks on the next Invoke past the
	// deadline — so an idle cluster gossips nothing. Member heartbeats
	// ride the same rounds: a member whose report fails to land misses
	// a heartbeat.
	GossipInterval time.Duration
	// SuspectAfter is the suspicion threshold K: a member that misses K
	// consecutive heartbeat rounds is believed suspect (default 2), and
	// placers stop routing to it as a holder.
	SuspectAfter int
	// DeadAfter is how many consecutive missed rounds declare a member
	// dead (default 2*SuspectAfter): its view entries are purged and
	// the repair pass re-replicates lineages it solely held.
	DeadAfter int
	// RepairReplicas is how many live disk-tier copies the repair pass
	// restores for a lineage that lost its last live RAM holder
	// (default 2, capped by the live fabric-member count).
	RepairReplicas int
	// RejoinLazy skips the disk-tier prewarm when a member restarts:
	// surviving lineages promote lazily (lukewarm) on first request
	// instead of eagerly at rejoin.
	RejoinLazy bool
	// SnapDir enables the content-addressed snapshot fabric: each member
	// gets a disk tier at SnapDir/node<i>, seeded with byte-identical
	// runtime base layers, and replication fetches only the stack layers
	// a member is missing. Empty disables the fabric (node-local tiers;
	// placement only routes to holders).
	SnapDir string
	// SnapDiskCap bounds each member's tier in bytes (0 = unlimited).
	SnapDiskCap int64
	// MaxRetries is the retry budget for contained faults: after a
	// member fails an invocation with a contained error, the cluster
	// re-picks a member and retries up to MaxRetries times (default 0 =
	// fail fast). Uncontained errors are never retried.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 1 ms).
	RetryBackoff time.Duration
	// Faults configures deterministic fault injection. The cluster
	// keeps the base injector for fabric-level points (snapshot
	// corruption, gossip and fetch drops); each member node derives a
	// private child injector for node-level points (UC crashes), unless
	// NodeConfig already carries one.
	Faults fault.Config
	// Metrics receives cluster-level counters (scheduler placements,
	// gossip, layer transfers); shared with members whose NodeConfig
	// carries none. Nil disables.
	Metrics *metrics.Recorder
	// Tracer receives cluster-level spans (gossip, fetch, stale prunes);
	// shared with members whose NodeConfig carries none. Nil disables.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.LinkBandwidth == 0 {
		c.LinkBandwidth = 10e9 / 8 // 10 GbE
	}
	if c.LinkRTT == 0 {
		c.LinkRTT = 150 * time.Microsecond
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 10 * time.Millisecond
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.RepairReplicas == 0 {
		c.RepairReplicas = 2
	}
	return c
}

// Stats counts cluster-level behavior.
type Stats struct {
	// LocalHits served from the chosen node's own caches.
	LocalHits int64
	// RemoteRoutes forwarded to a holder node.
	RemoteRoutes int64
	// Fetches replicated a function by shipping only its missing stack
	// layers from a holder's tier.
	Fetches int64
	// FetchedBytes is the total layer traffic (deduped layers ship 0).
	FetchedBytes int64
	// LayerDedups counts stack layers a fetch skipped because the
	// destination already held identical content (by digest).
	LayerDedups int64
	// FailedFetches counts layer fetches abandoned mid-flight (missing
	// source, rejected verification — including injected corruption — or
	// promote failure); each fell back to serving from the holder.
	FailedFetches int64
	// FetchRetransmits counts injected fetch packet drops (each cost one
	// extra RTT).
	FetchRetransmits int64
	// ClusterColds are first-in-cluster cold paths.
	ClusterColds int64
	// Retries counts re-picked invocations after contained faults.
	Retries int64
	// StaleDirectory counts placements that tripped over a holder that
	// no longer had the snapshot; the entry was pruned and the request
	// re-placed.
	StaleDirectory int64
	// GossipRounds counts completed manifest-exchange rounds.
	GossipRounds int64
	// GossipDrops counts member exchanges lost to injected faults (the
	// view stays stale for that member until the next round).
	GossipDrops int64
	// Failovers counts invocations re-picked to a live member after the
	// serving member turned out to be unreachable (a subset of Retries).
	Failovers int64
	// MemberCrashes, MemberRestarts, and MemberPartitions count
	// lifecycle events — test hooks and injected faults alike.
	MemberCrashes    int64
	MemberRestarts   int64
	MemberPartitions int64
	// SuspectedMembers, DeadMembers, and RevivedMembers count liveness
	// state-machine transitions recorded in the scheduler view.
	SuspectedMembers int64
	DeadMembers      int64
	RevivedMembers   int64
	// RepairsPromoted counts orphaned lineages restored to RAM on a
	// disk-tier survivor; RepairsRefetched counts disk copies re-shipped
	// to additional live members; RepairsCold counts lineages with no
	// live disk copy (the next request cold-boots locally);
	// RepairsFailed counts repair actions that errored.
	RepairsPromoted  int64
	RepairsRefetched int64
	RepairsCold      int64
	RepairsFailed    int64
}

// Member is one compute node in the cluster.
type Member struct {
	ID int
	// Node is the member's live compute node; nil while crashed (RAM
	// state does not survive a crash — a restart builds a fresh node).
	Node *core.Node
	// Store is the member's content-addressed disk tier; nil unless the
	// fabric is enabled (Config.SnapDir). The store object persists
	// across crashes — it is the disk — but is unreachable while the
	// member is down.
	Store    *snapstore.Store
	inflight int
	// up is ground truth: false between a crash and the next restart.
	up bool
	// partitioned: the node runs but nobody can reach it.
	partitioned bool
	// restarting guards against double-spawned injector restarts.
	restarting bool
	// epoch increments on every crash so in-flight attempts detect that
	// the member died (and maybe even restarted) under them.
	epoch int
	// nc is the node config the member was built with, kept so a
	// restart can rebuild the node over the same disk tier.
	nc core.Config
}

// alive reports ground-truth reachability: up and not partitioned.
func (m *Member) alive() bool { return m.up && !m.partitioned }

// Up reports whether the member's node is running (ground truth).
func (m *Member) Up() bool { return m.up }

// Partitioned reports whether the member is running but unreachable.
func (m *Member) Partitioned() bool { return m.partitioned }

// MemberInfo is one member's lifecycle state: the ground truth the
// cluster runtime knows (Up, Partitioned) plus the heartbeat-driven
// belief recorded in the scheduler view (State, Missed).
type MemberInfo struct {
	ID          int
	Up          bool
	Partitioned bool
	// State is the view's liveness belief: "alive", "suspect", "dead".
	State string
	// Missed is the member's consecutive missed heartbeat rounds.
	Missed int
}

// Cluster is a DR-SEUSS deployment.
type Cluster struct {
	eng     *sim.Engine
	cfg     Config
	members []*Member
	// view is the scheduler's shared residency/manifest state, refreshed
	// by gossip and updated synchronously on transfers the cluster
	// itself performs.
	view *sched.View
	// placer turns the view plus load state into placement decisions. It
	// is single-writer: only the cluster touches it.
	placer sched.Placer
	// fetching tracks in-flight fetches per function so concurrent
	// requests do not re-ship the same layers.
	fetching map[string]bool
	stats    Stats
	// faults is the fabric-level injector (nil when disabled).
	faults *fault.Injector
	rec    *metrics.Recorder
	tr     *trace.Tracer

	lastGossip sim.Time
	gossiped   bool
	scratch    []sched.NodeState // reused placement input

	// served/servedKeys track every function key the cluster has seen,
	// in first-arrival order — the deterministic worklist the repair
	// pass scans for lineages that lost their last live holder.
	served     map[string]bool
	servedKeys []string
	// needRepair/repairing coordinate the sim-clock repair proc: a
	// death declaration sets needRepair; one proc drains passes until
	// the flag stays clear.
	needRepair bool
	repairing  bool
}

// New boots n identical nodes and links them.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, ErrNoNodes
	}
	placer := cfg.Placer
	if placer == nil {
		placer = &sched.LocalityPlacer{}
	}
	c := &Cluster{
		eng:      eng,
		cfg:      cfg,
		view:     sched.NewView(cfg.Nodes),
		placer:   placer,
		fetching: make(map[string]bool),
		served:   make(map[string]bool),
		faults:   fault.New(cfg.Faults),
		rec:      cfg.Metrics,
		tr:       cfg.Tracer,
	}

	base := cfg.NodeConfig
	if base.Cores == 0 && base.MemoryBytes == 0 && !base.NetworkAO && !base.InterpreterAO && !base.DisableAO {
		base = core.DefaultConfig()
	}

	// With the fabric on, every member's tier is seeded from ONE
	// canonical boot per runtime: the encoded base layers are
	// byte-identical across nodes, so they share one FNV-64a digest
	// cluster-wide and a fetch never re-ships them.
	var seeds map[string][]byte
	if cfg.SnapDir != "" {
		seeds = make(map[string][]byte)
		for _, name := range base.Normalized().Runtimes {
			snap, err := core.BootRuntime(mem.NewStore(0), base, name)
			if err != nil {
				return nil, fmt.Errorf("cluster: seed runtime %q: %w", name, err)
			}
			var buf bytes.Buffer
			err = snap.Export(&buf)
			snap.Delete()
			if err != nil {
				return nil, fmt.Errorf("cluster: seed runtime %q: %w", name, err)
			}
			seeds["runtime/"+name] = buf.Bytes()
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		nc := base
		nc.Seed = nc.Seed + int64(i)
		if nc.Faults == nil {
			// Child(i+1) keeps member injectors distinct from the
			// cluster's own (Child(0) would alias the base seed).
			nc.Faults = fault.New(cfg.Faults.Child(i + 1))
		}
		if nc.Metrics == nil {
			nc.Metrics = cfg.Metrics
		}
		if nc.Tracer == nil {
			nc.Tracer = cfg.Tracer
		}
		if cfg.Lifecycle != nil {
			nc.Policy = cfg.Lifecycle.Clone()
			nc.Residency = lifecycleResidency{c: c, id: i}
		}
		var store *snapstore.Store
		if cfg.SnapDir != "" {
			capBytes := cfg.SnapDiskCap
			if capBytes == 0 {
				capBytes = -1
			}
			var err error
			store, err = snapstore.Open(filepath.Join(cfg.SnapDir, fmt.Sprintf("node%d", i)), capBytes)
			if err != nil {
				return nil, fmt.Errorf("cluster: node %d tier: %w", i, err)
			}
			for key, enc := range seeds {
				if err := store.Put(key, "", enc); err != nil {
					return nil, fmt.Errorf("cluster: node %d seed %q: %w", i, key, err)
				}
			}
			nc.SnapStore = store
		}
		node, err := core.NewNode(eng, nc)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.members = append(c.members, &Member{ID: i, Node: node, Store: store, up: true, nc: nc})
		c.view.SetFabric(i, store != nil)
	}
	return c, nil
}

// Members returns the cluster's nodes.
func (c *Cluster) Members() []*Member { return c.members }

// Inflight reports how many invocations the member is executing right
// now — fault injectors use it to land a crash mid-invocation.
func (m *Member) Inflight() int { return m.inflight }

// Stats returns cluster counters.
func (c *Cluster) Stats() Stats { return c.stats }

// View returns the scheduler's shared state (safe for concurrent use).
func (c *Cluster) View() *sched.View { return c.view }

// Holders returns the nodes the scheduler believes hold a function's
// snapshot in RAM, in ascending node order.
func (c *Cluster) Holders(key string) []int {
	return c.view.ResidentHolders(key)
}

// transferTime models shipping bytes across the fabric.
func (c *Cluster) transferTime(bytes int64) time.Duration {
	return c.cfg.LinkRTT + time.Duration(float64(bytes)/c.cfg.LinkBandwidth*float64(time.Second))
}

// isLeastLoaded reports whether no member carries less than m.
func (c *Cluster) isLeastLoaded(m *Member) bool {
	for _, o := range c.members {
		if o.inflight < m.inflight {
			return false
		}
	}
	return true
}

// Invoke services one invocation somewhere in the cluster and returns
// the result plus the serving node's ID. A contained fault (UC crash,
// deadline kill, member crash — anything the fault taxonomy marks
// retryable) consumes the retry budget: the cluster backs off,
// re-picks a member — excluding the one that just failed, so a sick
// node cannot eat the whole budget — and tries again. An attempt that
// landed on a dead or partitioned member is a failover: counted,
// traced, and re-picked among live members. Uncontained
// (deterministic) failures fail fast.
func (c *Cluster) Invoke(p *sim.Proc, req core.Request) (core.Result, int, error) {
	if len(c.members) == 0 {
		return core.Result{}, -1, ErrNoNodes
	}
	c.maybeGossip()
	if !c.served[req.Key] {
		c.served[req.Key] = true
		c.servedKeys = append(c.servedKeys, req.Key)
	}
	backoff := c.cfg.RetryBackoff
	exclude := -1
	for attempt := 0; ; attempt++ {
		target := c.pick(p, req, exclude)
		res, err := c.attempt(p, target, req)
		if err == nil {
			c.view.MarkResident(target.ID, req.Key)
			return res, target.ID, nil
		}
		if attempt >= c.cfg.MaxRetries || !fault.IsContained(err) {
			return core.Result{}, target.ID, err
		}
		c.stats.Retries++
		exclude = target.ID
		if errors.Is(err, ErrMemberDown) {
			c.stats.Failovers++
			c.rec.Inc(metrics.CtrClusterFailovers)
			c.tr.Record(trace.Event{
				At: time.Duration(c.eng.Now()), Kind: trace.KindFailover, ID: uint64(target.ID),
				Key: req.Key, Detail: "member unreachable; re-picking among live members",
			})
		}
		p.Sleep(backoff)
		backoff *= 2
	}
}

// attempt runs one invocation attempt on target, converting member
// death — before or during the call — into a contained ErrMemberDown
// the retry loop fails over.
func (c *Cluster) attempt(p *sim.Proc, target *Member, req core.Request) (core.Result, error) {
	if !target.alive() {
		return core.Result{}, fault.Contain(fmt.Errorf("%w: member %d", ErrMemberDown, target.ID))
	}
	epoch := target.epoch
	target.inflight++
	res, err := target.Node.Invoke(p, req)
	target.inflight--
	if err == nil && (target.epoch != epoch || !target.alive()) {
		// The member died (or vanished behind a partition) while the
		// request was in flight: whatever it computed never reached the
		// caller. Contained — the retry path re-runs it elsewhere.
		return core.Result{}, fault.Contain(fmt.Errorf("%w: member %d died mid-invocation", ErrMemberDown, target.ID))
	}
	return res, err
}

// maybeGossip runs a manifest-exchange round if the interval elapsed:
// every reachable member reports its RAM-resident snapshot keys and
// (on the fabric) its tier manifest, wholesale-replacing the scheduler
// view. The exchange itself is metadata-sized and charges no virtual
// time; an injected PointGossipDrop loses one member's report, leaving
// its view stale until the next round.
//
// Heartbeats piggyback on the same rounds: a member whose report fails
// to land — crashed, partitioned, or dropped on the wire — misses a
// heartbeat, and the per-member state machine walks alive → suspect
// (SuspectAfter consecutive misses) → dead (DeadAfter). A death
// declaration purges the member's view entries (counted as stale
// prunes) and schedules the repair pass. Lifecycle fault points
// (member-crash, member-partition, member-restart) are also consulted
// here, once per member per round in member order, so injected
// lifecycle chaos replays deterministically.
func (c *Cluster) maybeGossip() {
	now := c.eng.Now()
	if c.gossiped && now.Sub(c.lastGossip) < c.cfg.GossipInterval {
		return
	}
	c.gossiped = true
	c.lastGossip = now

	for _, m := range c.members {
		switch {
		case !m.up:
			if c.faults.Fire(fault.PointMemberRestart) && !m.restarting {
				m.restarting = true
				mm := m
				c.eng.Go(fmt.Sprintf("restart-%d", m.ID), func(p *sim.Proc) { c.restart(p, mm) })
			}
		case m.partitioned:
			if c.faults.Fire(fault.PointMemberRestart) {
				c.heal(m)
			}
		default:
			if c.faults.Fire(fault.PointMemberCrash) {
				c.crash(m)
			} else if c.faults.Fire(fault.PointMemberPartition) {
				c.partition(m)
			}
		}
	}

	declaredDead := false
	for _, m := range c.members {
		if m.alive() && !c.faults.Fire(fault.PointGossipDrop) {
			var layers []sched.Layer
			if m.Store != nil {
				for _, l := range m.Store.Manifest() {
					layers = append(layers, sched.Layer{Key: l.Key, Base: l.Base, Digest: l.Digest, Size: l.Size})
				}
			}
			c.view.Refresh(m.ID, m.Node.SnapshotKeys(), layers)
			if from := c.view.ReportHeartbeat(m.ID); from != sched.StateAlive {
				c.stats.RevivedMembers++
				c.rec.Inc(metrics.CtrMemberStateAlive)
				c.tr.Record(trace.Event{
					At: time.Duration(now), Kind: trace.KindRejoin, ID: uint64(m.ID),
					Detail: fmt.Sprintf("heartbeat resumed (was %v); believed alive again", from),
				})
			}
			continue
		}
		if m.alive() {
			// Reachable, but the injector ate the exchange: the view
			// stays stale for this member and the miss still counts
			// against its liveness — the detector cannot tell a lossy
			// wire from a dead peer.
			c.stats.GossipDrops++
			c.rec.Inc(metrics.CtrGossipDrops)
			c.tr.Record(trace.Event{
				At: time.Duration(now), Kind: trace.KindFault, ID: uint64(m.ID),
				Key: "gossip", Detail: "manifest exchange dropped; view stays stale one round",
			})
		}
		from, to := c.view.MissHeartbeat(m.ID, c.cfg.SuspectAfter, c.cfg.DeadAfter)
		if to == from {
			continue
		}
		switch to {
		case sched.StateSuspect:
			c.stats.SuspectedMembers++
			c.rec.Inc(metrics.CtrMemberStateSuspect)
			c.tr.Record(trace.Event{
				At: time.Duration(now), Kind: trace.KindCrash, ID: uint64(m.ID),
				Detail: fmt.Sprintf("suspected after %d missed heartbeats; skipped as holder", c.view.Missed(m.ID)),
			})
		case sched.StateDead:
			c.stats.DeadMembers++
			c.rec.Inc(metrics.CtrMemberStateDead)
			pruned := c.view.PurgeNode(m.ID)
			if pruned > 0 {
				c.stats.StaleDirectory += int64(pruned)
				c.rec.AddCounter(metrics.CtrSchedStaleEntries, int64(pruned))
			}
			declaredDead = true
			c.tr.Record(trace.Event{
				At: time.Duration(now), Kind: trace.KindCrash, ID: uint64(m.ID),
				Detail: fmt.Sprintf("declared dead after %d missed heartbeats; %d view entries pruned", c.view.Missed(m.ID), pruned),
			})
		}
	}
	c.stats.GossipRounds++
	c.rec.Inc(metrics.CtrGossipRounds)
	c.tr.Record(trace.Event{
		At: time.Duration(now), Kind: trace.KindGossip,
		Detail: fmt.Sprintf("round %d, view gen %d", c.stats.GossipRounds, c.view.Generation()),
	})
	if declaredDead {
		c.scheduleRepair()
	}
}

// ---- Member failure lifecycle ----

// Crash kills member id: resident UCs and memory-tier snapshots are
// lost, the disk tier survives but is unreachable until restart.
// In-flight invocations on the member fail contained and fail over.
// Detection is the heartbeat machinery's job — the view keeps
// believing the member alive until it misses enough rounds. Returns
// false if the member was already down. (Test hook; the member-crash
// fault point drives the same path.)
func (c *Cluster) Crash(id int) bool {
	if id < 0 || id >= len(c.members) || !c.members[id].up {
		return false
	}
	c.crash(c.members[id])
	return true
}

func (c *Cluster) crash(m *Member) {
	m.up = false
	m.partitioned = false
	m.epoch++
	m.Node = nil // RAM state is gone; any touch is a bug, make it loud
	c.stats.MemberCrashes++
	c.tr.Record(trace.Event{
		At: time.Duration(c.eng.Now()), Kind: trace.KindCrash, ID: uint64(m.ID),
		Detail: "member crashed: RAM state lost, disk tier offline until restart",
	})
}

// Restart rebuilds a crashed member over its surviving disk tier and
// rejoins it: a fresh node (empty RAM), a full manifest resync into
// the view with its stale entries pruned first, and a prewarm of every
// surviving lineage from the disk tier (skipped under RejoinLazy —
// first requests then promote lukewarm). Partitioned members heal via
// Heal; restarting an up member is an error. (Test hook; the
// member-restart fault point drives the same path.)
func (c *Cluster) Restart(p *sim.Proc, id int) error {
	if id < 0 || id >= len(c.members) {
		return fmt.Errorf("cluster: no member %d", id)
	}
	m := c.members[id]
	if m.up {
		return fmt.Errorf("cluster: member %d is up (heal partitions with Heal)", id)
	}
	return c.restart(p, m)
}

func (c *Cluster) restart(p *sim.Proc, m *Member) error {
	defer func() { m.restarting = false }()
	if m.up {
		return nil
	}
	node, err := core.NewNode(c.eng, m.nc)
	if err != nil {
		return fmt.Errorf("cluster: restart member %d: %w", m.ID, err)
	}
	m.Node = node
	m.up = true
	m.partitioned = false
	c.stats.MemberRestarts++
	warmed := 0
	if m.Store != nil && !c.cfg.RejoinLazy {
		// Prewarm: every lineage the surviving disk tier holds promotes
		// back into RAM before the member takes traffic (best-effort —
		// a damaged entry degrades that lineage to lukewarm-on-demand).
		for _, l := range m.Store.Manifest() {
			if strings.HasPrefix(l.Key, "fn/") && m.Node.PromoteLineage(p, l.Key) == nil {
				warmed++
			}
		}
	}
	c.resync(m)
	c.tr.Record(trace.Event{
		At: time.Duration(c.eng.Now()), Kind: trace.KindRejoin, ID: uint64(m.ID),
		Detail: fmt.Sprintf("restarted: manifest resynced, %d lineages prewarmed from disk tier", warmed),
	})
	return nil
}

// Partition isolates member id: the node keeps running but is
// reachable by no one — heartbeats stop landing, placements skip it
// once suspected, in-flight responses are lost. Returns false if the
// member is down or already partitioned. (Test hook; the
// member-partition fault point drives the same path.)
func (c *Cluster) Partition(id int) bool {
	if id < 0 || id >= len(c.members) || !c.members[id].alive() {
		return false
	}
	c.partition(c.members[id])
	return true
}

func (c *Cluster) partition(m *Member) {
	m.partitioned = true
	c.stats.MemberPartitions++
	c.tr.Record(trace.Event{
		At: time.Duration(c.eng.Now()), Kind: trace.KindCrash, ID: uint64(m.ID),
		Detail: "partitioned: running but reachable by no one",
	})
}

// Heal reconnects a partitioned member. Its RAM state survived, but
// its view entries may have been purged while it was believed dead, so
// it resyncs its manifest like a rejoining member. Returns false if
// the member is not partitioned.
func (c *Cluster) Heal(id int) bool {
	if id < 0 || id >= len(c.members) || !c.members[id].partitioned {
		return false
	}
	c.heal(c.members[id])
	return true
}

func (c *Cluster) heal(m *Member) {
	m.partitioned = false
	c.resync(m)
	c.tr.Record(trace.Event{
		At: time.Duration(c.eng.Now()), Kind: trace.KindRejoin, ID: uint64(m.ID),
		Detail: "partition healed: manifest resynced",
	})
}

// resync replaces everything the view believes about a rejoining
// member with its actual state — stale entries pruned, full manifest
// refresh — and marks it alive.
func (c *Cluster) resync(m *Member) {
	c.view.PurgeNode(m.ID)
	var layers []sched.Layer
	if m.Store != nil {
		for _, l := range m.Store.Manifest() {
			layers = append(layers, sched.Layer{Key: l.Key, Base: l.Base, Digest: l.Digest, Size: l.Size})
		}
	}
	c.view.Refresh(m.ID, m.Node.SnapshotKeys(), layers)
	if from := c.view.ReportHeartbeat(m.ID); from != sched.StateAlive {
		c.stats.RevivedMembers++
		c.rec.Inc(metrics.CtrMemberStateAlive)
	}
}

// MemberStates reports every member's lifecycle state: runtime ground
// truth plus the heartbeat-driven belief in the scheduler view.
func (c *Cluster) MemberStates() []MemberInfo {
	out := make([]MemberInfo, len(c.members))
	for i, m := range c.members {
		out[i] = MemberInfo{
			ID: m.ID, Up: m.up, Partitioned: m.partitioned,
			State:  c.view.State(m.ID).String(),
			Missed: c.view.Missed(m.ID),
		}
	}
	return out
}

// ---- Redundancy repair ----

// scheduleRepair requests a repair pass on the sim clock. One repair
// proc runs at a time; a declaration arriving mid-pass re-arms it.
func (c *Cluster) scheduleRepair() {
	c.needRepair = true
	if c.repairing {
		return
	}
	c.repairing = true
	c.eng.Go("repair", func(p *sim.Proc) {
		for c.needRepair {
			c.needRepair = false
			c.repairPass(p)
		}
		c.repairing = false
	})
}

// repairPass scans every lineage the cluster has served for ones that
// lost their last live RAM holder, and restores redundancy: promote a
// copy back into RAM on the least-loaded disk-tier survivor, then
// re-fetch the stack onto additional live members until RepairReplicas
// live tiers hold it. A lineage with no live disk copy is left to the
// placement fallback — the next request cold-boots locally (outcome
// "cold"): degraded, never stranded.
func (c *Cluster) repairPass(p *sim.Proc) {
	for _, key := range c.servedKeys {
		if c.aliveResident(key) {
			continue
		}
		c.repairLineage(p, key)
	}
}

// aliveResident reports whether any live member holds the function in
// RAM (ground truth, not the view).
func (c *Cluster) aliveResident(key string) bool {
	for _, m := range c.members {
		if m.alive() && (m.Node.HasSnapshot(key) || m.Node.HasIdleUC(key)) {
			return true
		}
	}
	return false
}

func (c *Cluster) repairLineage(p *sim.Proc, key string) {
	lineage := "fn/" + key
	start := c.eng.Now()
	var survivors, candidates []*Member
	for _, m := range c.members {
		if !m.alive() || m.Store == nil {
			continue
		}
		if m.Store.HasStack(lineage) {
			survivors = append(survivors, m)
		} else {
			candidates = append(candidates, m)
		}
	}
	if len(survivors) == 0 {
		c.stats.RepairsCold++
		c.rec.Inc(metrics.CtrFabricRepairsCold)
		c.tr.Record(trace.Event{
			At: time.Duration(start), Kind: trace.KindRepair, Key: key,
			Detail: "no live disk copy; next request cold-boots locally",
		})
		return
	}
	// Restore a RAM copy on the least-loaded survivor (its own disk is
	// the source — a lukewarm-cost promote, no bytes on the wire).
	src := survivors[0]
	for _, m := range survivors[1:] {
		if m.inflight < src.inflight {
			src = m
		}
	}
	if err := src.Node.PromoteLineage(p, lineage); err != nil {
		c.stats.RepairsFailed++
		c.rec.Inc(metrics.CtrFabricRepairsFailed)
		c.tr.Record(trace.Event{
			At: time.Duration(start), Kind: trace.KindRepair, ID: uint64(src.ID), Key: key,
			Detail: fmt.Sprintf("promote on survivor failed: %v", err),
		})
	} else {
		c.stats.RepairsPromoted++
		c.rec.Inc(metrics.CtrFabricRepairsPromoted)
		c.view.MarkResident(src.ID, key)
		c.tr.Record(trace.Event{
			At: time.Duration(start), Dur: time.Duration(c.eng.Now() - start),
			Kind: trace.KindRepair, ID: uint64(src.ID), Key: key,
			Detail: "lineage promoted from disk-tier survivor",
		})
	}
	// Restore disk redundancy: ship the stack to live members missing
	// it until RepairReplicas live tiers hold a copy.
	need := c.cfg.RepairReplicas - len(survivors)
	for _, dst := range candidates {
		if need <= 0 {
			break
		}
		shipStart := c.eng.Now()
		moved, fetched, deduped, err := c.shipLayers(p, src, dst, lineage)
		if err != nil {
			c.stats.RepairsFailed++
			c.rec.Inc(metrics.CtrFabricRepairsFailed)
			c.tr.Record(trace.Event{
				At: time.Duration(shipStart), Kind: trace.KindRepair, ID: uint64(dst.ID), Key: key,
				Detail: fmt.Sprintf("re-replication from member %d failed: %v", src.ID, err),
			})
			continue
		}
		c.stats.RepairsRefetched++
		c.rec.Inc(metrics.CtrFabricRepairsRefetched)
		c.tr.Record(trace.Event{
			At: time.Duration(shipStart), Dur: time.Duration(c.eng.Now() - shipStart),
			Kind: trace.KindRepair, ID: uint64(dst.ID), Key: key,
			Detail: fmt.Sprintf("%d layers re-fetched (%d deduped), %.1f KB from member %d", fetched, deduped, float64(moved)/1e3, src.ID),
		})
		need--
	}
}

// pruneStale drops a scheduler entry the placement verifier caught
// lying — the holder no longer has the snapshot (RAM or tier) — so the
// next placement does not re-hit it.
func (c *Cluster) pruneStale(node int, key, lineage string) {
	c.view.DropResident(node, key)
	c.view.DropLayer(node, lineage)
	c.stats.StaleDirectory++
	c.rec.Inc(metrics.CtrSchedStaleEntries)
	c.tr.Record(trace.Event{
		At: time.Duration(c.eng.Now()), Kind: trace.KindStale, ID: uint64(node),
		Key: key, Detail: "holder no longer resident; entry pruned, request re-placed",
	})
}

// pick asks the placer for a decision, verifies it against node ground
// truth (the view may lag gossip), prunes stale entries, and executes
// the transfer mechanics. Bounded re-placement: after one prune per
// member the request serves cold rather than looping. exclude is the
// member the previous attempt failed on (-1 for none): it is marked
// unhealthy for this placement so a retry never re-picks it while an
// alternative exists.
func (c *Cluster) pick(p *sim.Proc, req core.Request, exclude int) *Member {
	lineage := "fn/" + req.Key
	for tries := 0; ; tries++ {
		c.scratch = c.scratch[:0]
		for _, m := range c.members {
			c.scratch = append(c.scratch, sched.NodeState{ID: m.ID, Inflight: m.inflight, Healthy: m.alive() && m.ID != exclude})
		}
		pl := c.placer.Place(sched.Request{Key: req.Key, Lineage: lineage, Nodes: c.scratch, View: c.view})

		switch pl.Action {
		case sched.ActionCold:
			c.stats.ClusterColds++
			c.rec.Inc(metrics.CtrSchedPlacementsCold)
			return c.members[pl.Node]

		case sched.ActionRoute:
			holder := c.members[pl.Node]
			if !holder.alive() {
				// The view lags ground truth: the believed holder is
				// unreachable. Don't prune — its entries purge when it
				// is declared dead — just hand it back so the retry
				// path fails over with this member excluded.
				return holder
			}
			if holder.Node.HasSnapshot(req.Key) || holder.Node.HasIdleUC(req.Key) ||
				(holder.Store != nil && holder.Store.Has(lineage)) {
				c.rec.Inc(metrics.CtrSchedPlacementsRoute)
				c.stats.LocalHitsOrRoute(c.isLeastLoaded(holder))
				return holder
			}
			if tries >= len(c.members) {
				c.stats.ClusterColds++
				c.rec.Inc(metrics.CtrSchedPlacementsCold)
				return holder
			}
			c.pruneStale(holder.ID, req.Key, lineage)

		case sched.ActionFetch:
			holder, dst := c.members[pl.Holder], c.members[pl.Node]
			if !holder.alive() {
				// Source died between gossip and placement: serve on the
				// (healthy, placer-chosen) destination, cold if need be.
				return dst
			}
			if !holder.Node.HasSnapshot(req.Key) {
				if tries >= len(c.members) {
					c.stats.ClusterColds++
					c.rec.Inc(metrics.CtrSchedPlacementsCold)
					return dst
				}
				c.pruneStale(holder.ID, req.Key, lineage)
				continue
			}
			if c.fetching[req.Key] {
				// A racer is already shipping this function: serve from
				// the holder rather than double-transferring.
				c.rec.Inc(metrics.CtrSchedPlacementsRoute)
				c.stats.LocalHitsOrRoute(false)
				return holder
			}
			c.fetching[req.Key] = true
			c.rec.Inc(metrics.CtrSchedPlacementsFetch)
			target := c.fetchLayers(p, holder, dst, req.Key)
			delete(c.fetching, req.Key)
			return target
		}
	}
}

// fallback picks who serves after an abandoned transfer: the holder
// while it lives (routing still works), else the destination — and if
// that is unreachable too, Invoke's failover path re-picks.
func fallback(holder, dst *Member) *Member {
	if holder.alive() {
		return holder
	}
	return dst
}

// fetchLayers replicates a function to dst by shipping only the stack
// layers dst's tier is missing, base-most first. The holder flushes the
// lineage to its own tier (metadata-only when the bytes are unchanged),
// then each layer either dedupes by digest (identical content already
// on dst — the runtime base always does, shipping zero bytes) or
// travels CRC-protected: a fetched layer must decode through the codec,
// name the key it claims, and match the advertised digest before dst's
// tier accepts it. Any failure abandons the fetch and the holder serves
// — fetch failure degrades to routing, never to a failed invocation.
func (c *Cluster) fetchLayers(p *sim.Proc, holder, dst *Member, key string) *Member {
	lineage := "fn/" + key
	start := c.eng.Now()
	if !holder.Node.FlushLineage(p, key) && !holder.Store.Has(lineage) {
		c.stats.FailedFetches++
		return holder
	}
	moved, fetched, deduped, err := c.shipLayers(p, holder, dst, lineage)
	if err != nil {
		c.stats.FailedFetches++
		return fallback(holder, dst)
	}
	if !dst.alive() || dst.Node.PromoteLineage(p, lineage) != nil {
		c.stats.FailedFetches++
		return fallback(holder, dst)
	}
	c.stats.Fetches++
	c.stats.FetchedBytes += moved
	c.view.MarkResident(dst.ID, key)
	now := c.eng.Now()
	c.tr.Record(trace.Event{
		At: time.Duration(start), Dur: time.Duration(now - start),
		Kind: trace.KindFetch, ID: uint64(dst.ID), Key: key,
		Path:   "fetch",
		Detail: fmt.Sprintf("%d layers fetched (%d deduped), %.1f KB from node %d", fetched, deduped, float64(moved)/1e3, holder.ID),
	})
	return dst
}

// shipLayers copies lineage's stack layers missing from dst's tier out
// of src's tier, base-most first, deduping by digest — the shared
// transfer loop under both a locality-miss fetch and a repair
// re-replication. Both ends must stay reachable for the duration: a
// member dying while a layer is on the wire aborts the copy.
func (c *Cluster) shipLayers(p *sim.Proc, src, dst *Member, lineage string) (moved int64, fetched, deduped int, err error) {
	stack := src.Store.Stack(lineage)
	if len(stack) == 0 {
		return 0, 0, 0, fmt.Errorf("cluster: member %d holds no stack for %s", src.ID, lineage)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		lk := stack[i]
		if !src.alive() || !dst.alive() {
			return moved, fetched, deduped, fault.Contain(fmt.Errorf("%w: transfer %d→%d lost mid-stack", ErrMemberDown, src.ID, dst.ID))
		}
		layer, ok := src.Store.Layer(lk)
		if !ok {
			return moved, fetched, deduped, fmt.Errorf("cluster: member %d lost layer %s mid-transfer", src.ID, lk)
		}
		if have, ok := dst.Store.Layer(lk); ok && have.Digest == layer.Digest {
			// Same key, same content: only the working-set sidecar can
			// be missing; ship that alone.
			moved += shipWorkingSet(src, dst, layer.Digest)
			c.stats.LayerDedups++
			c.rec.Inc(metrics.CtrFabricLayersDeduped)
			deduped++
			continue
		}
		if dst.Store.HasDigest(layer.Digest) && dst.Store.LinkDigest(lk, layer.Base, layer.Digest) == nil {
			// Identical content under another name: link, ship nothing
			// but the sidecar.
			moved += shipWorkingSet(src, dst, layer.Digest)
			c.stats.LayerDedups++
			c.rec.Inc(metrics.CtrFabricLayersDeduped)
			deduped++
			continue
		}
		data, err := src.Store.Get(lk)
		if err != nil {
			return moved, fetched, deduped, err
		}
		// Copy before mutating: Get's single-flight shares the backing
		// slice with concurrent readers.
		wire := append([]byte(nil), data...)
		if c.faults.Fire(fault.PointFetchDrop) {
			// One dropped packet: pay a retransmit RTT and continue.
			c.stats.FetchRetransmits++
			p.Sleep(c.cfg.LinkRTT)
		}
		if c.faults.Fire(fault.PointSnapshotCorrupt) {
			wire[len(wire)/2] ^= 0xff
		}
		p.Sleep(c.transferTime(int64(len(wire))))
		if !src.alive() || !dst.alive() {
			// A member died while the layer was on the wire.
			return moved, fetched, deduped, fault.Contain(fmt.Errorf("%w: transfer %d→%d lost mid-layer", ErrMemberDown, src.ID, dst.ID))
		}
		if err := dst.Store.PutFetched(lk, layer.Base, wire, layer.Digest); err != nil {
			c.rec.Inc(metrics.CtrFabricLayersRejected)
			c.tr.Record(trace.Event{
				At: time.Duration(c.eng.Now()), Kind: trace.KindFault, ID: uint64(dst.ID),
				Key: lk, Detail: fmt.Sprintf("fetched layer rejected: %v; holder serves", err),
			})
			return moved, fetched, deduped, err
		}
		moved += int64(len(wire))
		fetched++
		c.rec.Inc(metrics.CtrFabricLayersFetched)
		moved += shipWorkingSet(src, dst, layer.Digest)
	}
	return moved, fetched, deduped, nil
}

// shipWorkingSet piggybacks a layer's working-set sidecar on the
// transfer that just placed (or deduped) the layer on dst, so a peer's
// first lukewarm restore of a fetched lineage is already prefetched.
// The sidecar is advisory and content-addressed by the layer it rides
// with — verification happens in PutWorkingSetForDigest — so every
// failure path ships nothing and is silent. Returns the bytes moved.
func shipWorkingSet(src, dst *Member, digest uint64) int64 {
	data, ok := src.Store.WorkingSetForDigest(digest)
	if !ok {
		return 0
	}
	if _, has := dst.Store.WorkingSetForDigest(digest); has {
		return 0
	}
	if dst.Store.PutWorkingSetForDigest(digest, data) != nil {
		return 0
	}
	return int64(len(data))
}

// LocalHitsOrRoute records a directory hit.
func (s *Stats) LocalHitsOrRoute(local bool) {
	if local {
		s.LocalHits++
	} else {
		s.RemoteRoutes++
	}
}
