// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds cmd/seuss-node and this program from the checkout
// and execs it.
//
//	perfbench -node BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//	perfbench -node BIN -workdir DIR --smoke
//
// With --trace 0 it measures one workload end to end: the HTTP
// workloads start fresh seuss-node processes on loopback and drive
// /invoke with a seeded closed-loop and open-loop generator; fabric-sim
// runs the virtual-time DistCluster in-process through the public seuss
// facade. With --trace 1 it replays the same seeded streams against
// each layer's public functions and reports per-layer numbers (see
// traced.go). Every response is checked against the output the
// benchmark computes for it. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation of the benchmark.
type bench struct {
	nodeBin string
	workdir string
	runDir  string // this run's own directory under workdir
	seed    int64
	seconds int
	setups  int // set-ups per run; setup_s is their median

	attempted int64
	failed    int64
	problems  []string // failed checks, in order
	metrics   map[string]metric
	printed   map[string]string // every printed metric (measured or unavailable) → unit
}

// fail records a failed check that is not a single request.
func (b *bench) fail(format string, args ...interface{}) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// count adds one phase's requests to the run's totals and records the
// first few failures.
func (b *bench) count(p phase) {
	b.attempted += int64(len(p.records))
	shown := 0
	for _, r := range p.records {
		if r.ok {
			continue
		}
		b.failed++
		if shown < 3 {
			b.fail("%s: %s", p.name, r.err)
			shown++
		}
	}
}

// report prints one metric line — name, value, unit and what it was
// computed from — and keeps it for the JSON line.
func (b *bench) report(name string, value float64, unit, note string) {
	b.printed[name] = unit
	b.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Printf("  %-34s %14.6g %-8s %s\n", name, value, unit, note)
}

// unavailable prints a metric that cannot be measured here, with why.
func (b *bench) unavailable(name, unit, why string) {
	b.printed[name] = unit
	fmt.Printf("  %-34s %14s %-8s unavailable: %s\n", name, "—", unit, why)
}

// tempDir makes a fresh directory under this run's directory.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.runDir, prefix+"-")
}

func main() {
	nodeBin := flag.String("node", "", "seuss-node binary")
	workdir := flag.String("workdir", ".bench_build", "directory for temp state, logs and span dumps")
	name := flag.String("workload", "", "workload: hot-http, scale-to-zero, cold-churn or fabric-sim")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 = per-layer traced replay instead of end-to-end measurement")
	smoke := flag.Bool("smoke", false, "run every workload for about a second, both modes, and check every metric is printed")
	flag.Parse()

	if *smoke {
		os.Exit(runSmoke(*nodeBin, *workdir))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, _, err := run(*nodeBin, *workdir, w, *seed, *seconds, *traced == 1, w.setups)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // plain numbers and strings always marshal
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload in one mode and returns its result and the
// unit of every metric it printed. An error means the benchmark could
// not start (no result is printed); a failure once it has started is a
// failed check in the result.
func run(nodeBin, workdir string, w *workload, seed int64, seconds int, traced bool, setups int) (result, map[string]string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, nil, err
	}
	if !w.fabric || traced {
		if _, err := os.Stat(nodeBin); err != nil {
			return result{}, nil, fmt.Errorf("seuss-node binary: %w", err)
		}
	}
	runDir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, nil, err
	}
	b := &bench{nodeBin: nodeBin, workdir: workdir, runDir: runDir, seed: seed, seconds: seconds,
		setups: setups, metrics: map[string]metric{}, printed: map[string]string{}}
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	fmt.Printf("perfbench %s workload=%s seed=%d seconds=%d\n", mode, w.name, seed, seconds)
	switch {
	case traced:
		err = b.runTraced(w)
	case w.fabric:
		err = b.runFabric(w)
	default:
		err = b.runHTTP(w)
	}
	// Run hygiene: every process this run started has been waited for by
	// now; its run directory (snapshot dirs, fabric tiers) must be
	// empty of everything but logs.
	b.checkLeftovers()
	if err != nil {
		b.fail("%v", err)
	}
	want := e2eMetrics
	if traced {
		want = layerMetrics
	}
	out := make(map[string]metric, len(want))
	for _, name := range want {
		m, ok := b.metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if err == nil {
				b.fail("metric %s was not measured", name)
			}
			m.Value = 0
		}
		out[name] = m
	}
	for _, p := range b.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	correct := len(b.problems) == 0 && b.failed == 0
	if b.attempted == 0 {
		b.attempted = 1
		correct = false
		b.fail("no requests attempted")
	}
	return result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: out}, b.printed, nil
}

// checkLeftovers fails the run if a temp directory outlived its owner,
// then removes the run directory, keeping server logs of failed runs.
func (b *bench) checkLeftovers() {
	entries, err := os.ReadDir(b.runDir)
	if err != nil {
		b.fail("read run dir: %v", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			b.fail("temp directory %s outlived the run", e.Name())
			os.RemoveAll(filepath.Join(b.runDir, e.Name()))
		}
	}
	if len(b.problems) == 0 && b.failed == 0 {
		os.RemoveAll(b.runDir)
	}
}

// pathShares counts the paths of successful records.
func pathShares(ps ...phase) (map[string]int64, int64) {
	counts := map[string]int64{}
	var n int64
	for _, p := range ps {
		for _, r := range p.records {
			if r.ok {
				counts[r.path]++
				n++
			}
		}
	}
	return counts, n
}

// checkIDs fails the run for every request id seen twice.
func (b *bench) checkIDs(ps []phase) {
	seen := make(map[uint64]struct{})
	var dups int64
	for _, p := range ps {
		for _, r := range p.records {
			if !r.ok {
				continue
			}
			if _, dup := seen[r.id]; dup {
				dups++
				continue
			}
			seen[r.id] = struct{}{}
		}
	}
	if dups > 0 {
		b.failed += dups
		b.fail("%d duplicate request_id values", dups)
	}
}

// checkPaths fails the run unless at least minShare of the measured
// requests took the workload's path; on a miss every off-path request
// counts as failed.
func (b *bench) checkPaths(w *workload, ps ...phase) {
	counts, n := pathShares(ps...)
	if n == 0 {
		return
	}
	share := float64(counts[w.path]) / float64(n)
	if share < w.minShare {
		b.failed += n - counts[w.path]
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		mix := ""
		for _, k := range keys {
			mix += fmt.Sprintf(" %s=%d", k, counts[k])
		}
		b.fail("path mix: %.4f %s, want ≥ %.2f (%s)", share, w.path, w.minShare, mix[1:])
	}
}

// finite maps NaN (an empty sample) to 0 for printing.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
