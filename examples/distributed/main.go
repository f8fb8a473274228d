// DR-SEUSS (§9 future work): a distributed, replicated global snapshot
// cache. Unikernel snapshots are read-only and every UC shares one
// network identity, so a snapshot captured on one node deploys on any
// node with the same base image. The cluster's directory makes a
// function cold at most once per *cluster*; under load, the function's
// snapshot layers are fetched over the 10 GbE fabric (the runtime base
// layer dedupes by digest and never ships) and the function becomes
// warm on more than one node.
package main

import (
	"fmt"
	"log"
	"os"

	"seuss"
)

const fn = `
function main(args) {
	var total = 0;
	for (var i = 0; i < args.n; i++) { total += i; }
	return {sum: total};
}
`

func main() {
	// The fabric: each member's content-addressed disk tier lives
	// under this directory.
	dir, err := os.MkdirTemp("", "seuss-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sim := seuss.New()
	dc, err := sim.NewDistCluster(seuss.DistConfig{
		Nodes:   3,
		Placer:  &seuss.LocalityPlacer{Replicate: true},
		SnapDir: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d nodes, placer=locality-replicate, fabric on\n\n", dc.Nodes())

	// First invocation: cold, once, somewhere.
	inv, node, err := dc.InvokeSync("team/sum", fn, `{"n": 100}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request 1: node=%d path=%-4s latency=%8v %s\n", node, inv.Path, inv.Latency, inv.Output)

	// Sixteen concurrent requests: the holder overloads, another node
	// fetches the function's layers, and the function is served warm
	// from multiple nodes.
	type outcome struct {
		node int
		path string
	}
	var outcomes []outcome
	for i := 0; i < 16; i++ {
		sim.Spawn("client", func(t *seuss.Task) {
			inv, node, err := dc.Invoke(t, "team/sum", fn, `{"n": 100}`)
			if err != nil {
				log.Fatal(err)
			}
			outcomes = append(outcomes, outcome{node, inv.Path})
		})
	}
	sim.Run()

	perNode := map[int]int{}
	cold := 0
	for _, o := range outcomes {
		perNode[o.node]++
		if o.path == "cold" {
			cold++
		}
	}
	fmt.Printf("\n16 concurrent requests served by nodes: %v (cold paths: %d)\n", perNode, cold)

	st := dc.Stats()
	fmt.Printf("cluster stats: colds=%d fetches=%d fetched=%.1f KB layer dedups=%d holders=%v\n",
		st.ClusterColds, st.Fetches, float64(st.FetchedBytes)/1e3, st.LayerDedups, dc.Holders("team/sum"))
}
