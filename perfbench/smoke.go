package main

import (
	"fmt"
	"sort"
)

// Every metric the benchmark prints, by mode, with its unit. The smoke
// run checks each workload prints each one that applies to it (measured
// or marked unavailable with a reason).
var (
	e2eUnits = map[string]string{
		"setup_s": "s", "throughput_rps": "req/s", "cpu_us_per_req": "us", "p50_ms": "ms", "p99_ms": "ms",
		"fail_ratio": "ratio", "rss_mb": "MB", "virt_p99_ms": "ms",
	}
	httpUnits   = map[string]string{"gen.late_p50_ms": "ms", "gen.late_p99_ms": "ms", "open.p50_from_send_ms": "ms"}
	fabricUnits = map[string]string{"sim_inv_per_s": "inv/s", "virt_rps": "req/s"}
	layerUnits  = map[string]string{
		"http.invoke_us": "us", "http.coverage": "ratio",
		"seuss-node.self_us": "us", "seuss-node.cpu_us_per_req": "us", "seuss-node.req_bytes": "bytes", "seuss-node.resp_bytes": "bytes",
		"client.cpu_us_per_req": "us",
		"shardpool.invoke_us":   "us", "shardpool.self_us": "us", "shardpool.tick_ms": "ms",
		"shardpool.stolen": "count", "shardpool.requeued": "count", "shardpool.breaker_trips": "count",
		"core.invoke_us": "us", "core.invoke_us.cold": "us", "core.invoke_us.warm": "us", "core.invoke_us.hot": "us", "core.invoke_us.lukewarm": "us",
		"core.path_share.cold": "ratio", "core.path_share.warm": "ratio", "core.path_share.hot": "ratio", "core.path_share.lukewarm": "ratio",
		"core.mem_used_mb": "MB", "core.reaper.expired": "count", "core.reaper.demoted": "count",
		"uc.deploy_us": "us", "uc.deploy_prefetched_us": "us", "uc.kit_hit_ratio": "ratio",
		"interp.import_compile_us": "us", "interp.invoke_us": "us",
		"snapshot.capture_us": "us", "snapshot.export_us": "us", "snapshot.graft_us": "us", "snapshot.wire_bytes": "bytes",
		"snapstore.get_us": "us", "snapstore.put_us": "us", "snapstore.put_new_us": "us", "snapstore.manifest_bytes": "bytes",
		"snapstore.hit_ratio": "ratio", "snapstore.puts_per_req": "count", "snapstore.ws_coverage": "ratio",
		"sched.place_us": "us", "sched.placements.cold": "count", "sched.placements.route": "count",
		"sched.placements.fetch": "count", "sched.placements.migrate": "count",
		"cluster.colds": "count", "fabric.fetches": "count", "fabric.layer_dedups": "count", "faas.retries": "count",
		"go.allocs_per_req": "count", "go.alloc_bytes_per_req": "bytes", "go.gc_pause_ms": "ms",
		"trace.overhead_ratio": "ratio",
	}
)

// runSmoke runs every workload for about a second in both modes, with
// one set-up each, and checks that every run is correct and prints
// every metric above that applies to it with its unit.
func runSmoke(nodeBin, workdir string) int {
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				merge(want, layerUnits)
			} else {
				merge(want, e2eUnits)
				if w.fabric {
					merge(want, fabricUnits)
				} else {
					merge(want, httpUnits)
				}
			}
			res, printed, err := run(nodeBin, workdir, w, 1, 1, traced, 1)
			var problems []string
			switch {
			case err != nil:
				problems = append(problems, err.Error())
			case !res.Correct:
				problems = append(problems, "run not correct")
			}
			for _, name := range sortedKeys(want) {
				if got, ok := printed[name]; !ok {
					problems = append(problems, "missing "+name)
				} else if got != want[name] {
					problems = append(problems, fmt.Sprintf("%s unit %q, want %q", name, got, want[name]))
				}
			}
			mode := map[bool]string{false: "end-to-end", true: "traced"}[traced]
			if len(problems) == 0 {
				fmt.Printf("smoke %-13s %-10s ok: %d metrics printed with units\n", w.name, mode, len(want))
				continue
			}
			failed++
			for _, p := range problems {
				fmt.Printf("smoke %-13s %-10s FAIL %s\n", w.name, mode, p)
			}
		}
	}
	if failed > 0 {
		fmt.Printf("smoke: %d of %d runs failed\n", failed, 2*len(workloads))
		return 1
	}
	fmt.Println("smoke: all runs ok")
	return 0
}

func merge(dst, src map[string]string) {
	for k, v := range src {
		dst[k] = v
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
