package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// conns is the client's connection budget: one per CPU of the 2-CPU
// box the workload rates were set on, so the generator never outnumbers
// the server's shards.
const conns = 2

// node is one running seuss-node process on a loopback port.
type node struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	snapdir string // "" when memory-only
	logf    *os.File
	exited  chan struct{}
	client  *http.Client
}

// freePort asks the kernel for an unused loopback port. The port is
// released before seuss-node binds it, so startNode retries on a lost
// race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startNode launches a fresh seuss-node for the workload and waits until
// /healthz answers 200. Every node gets a fresh -snapdir when the
// workload uses the disk tier.
func (b *bench) startNode(w *workload) (*node, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		n, err := b.tryStartNode(w)
		if err == nil {
			return n, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (b *bench) tryStartNode(w *workload) (*node, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	n := &node{base: "http://127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-shards", strconv.Itoa(conns)}
	args = append(args, w.flags...)
	if w.snapdir {
		dir, err := b.tempDir("snapdir")
		if err != nil {
			return nil, err
		}
		n.snapdir = dir
		args = append(args, "-snapdir", dir)
	}
	logf, err := os.Create(filepath.Join(b.runDir, fmt.Sprintf("seuss-node-%d.log", port)))
	if err != nil {
		n.removeSnapdir()
		return nil, err
	}
	n.logf = logf
	n.cmd = exec.Command(b.nodeBin, args...)
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the node dies with it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		logf.Close()
		n.removeSnapdir()
		return nil, fmt.Errorf("start seuss-node: %w", err)
	}
	go func() { n.cmd.Wait(); close(n.exited) }()
	n.client = &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-n.exited:
			n.close()
			return nil, fmt.Errorf("seuss-node exited during start (see %s)", logf.Name())
		default:
		}
		resp, err := n.client.Get(n.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, nil
			}
		}
		if time.Now().After(deadline) {
			n.stop()
			return nil, errors.New("seuss-node did not become healthy within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// stop sends SIGTERM, waits for the graceful drain to finish (SIGKILL
// after a minute), and removes the node's snapshot directory. It
// reports whether the process is confirmed gone.
func (n *node) stop() error {
	if n.client != nil {
		n.client.CloseIdleConnections()
	}
	select {
	case <-n.exited:
	default:
		n.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-n.exited:
		case <-time.After(60 * time.Second):
			n.cmd.Process.Kill()
			<-n.exited
		}
	}
	n.close()
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", n.pid())); err == nil {
		// A zombie is reaped by cmd.Wait, so a surviving /proc entry
		// can only be a recycled pid; check it is not ours.
		if exe, _ := os.Readlink(fmt.Sprintf("/proc/%d/exe", n.pid())); exe == n.cmd.Path {
			return fmt.Errorf("seuss-node pid %d outlived stop", n.pid())
		}
	}
	return nil
}

func (n *node) close() {
	if n.logf != nil {
		n.logf.Close()
	}
	n.removeSnapdir()
}

func (n *node) removeSnapdir() {
	if n.snapdir != "" {
		os.RemoveAll(n.snapdir)
	}
}

// invokeResp is the /invoke response body.
type invokeResp struct {
	RequestID uint64  `json:"request_id"`
	Path      string  `json:"path"`
	LatencyMS float64 `json:"latency_ms"`
	Output    struct {
		OK     bool     `json:"ok"`
		Result fnResult `json:"result"`
	} `json:"output"`
}

// outcome is one HTTP invocation as the client saw it.
type outcome struct {
	ok       bool // 200 with the expected output
	resp     invokeResp
	reqBytes int
	respLen  int
	err      string
}

// invoker is one client connection's reusable buffers.
type invoker struct {
	n    *node
	body []byte
	resp bytes.Buffer
}

// invoke sends one call and checks its output.
func (iv *invoker) invoke(c call) outcome {
	iv.body = c.appendBody(iv.body[:0])
	o := outcome{reqBytes: len(iv.body)}
	req, err := http.NewRequest(http.MethodPost, iv.n.base+"/invoke", bytes.NewReader(iv.body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := iv.n.client.Do(req)
	if err != nil {
		o.err = err.Error()
		return o
	}
	iv.resp.Reset()
	_, err = iv.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	o.respLen = iv.resp.Len()
	if err != nil {
		o.err = "read body: " + err.Error()
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(iv.resp.Bytes()))
		return o
	}
	if err := json.Unmarshal(iv.resp.Bytes(), &o.resp); err != nil {
		o.err = "decode: " + err.Error()
		return o
	}
	if !c.check(o.resp.Output.OK, o.resp.Output.Result) {
		o.err = fmt.Sprintf("wrong output for %s x=%d: %s", c.fn.key, c.x, bytes.TrimSpace(iv.resp.Bytes()))
		return o
	}
	o.ok = true
	return o
}

// getJSON fetches a GET endpoint into v.
func (n *node) getJSON(path string, v interface{}) error {
	resp, err := n.client.Get(n.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getText fetches a GET endpoint's body.
func (n *node) getText(path string) (string, error) {
	resp, err := n.client.Get(n.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(b), nil
}

// nodeStats is the subset of /stats the benchmark checks and reports.
type nodeStats struct {
	Cold         int64    `json:"cold"`
	Warm         int64    `json:"warm"`
	Hot          int64    `json:"hot"`
	Lukewarm     int64    `json:"lukewarm"`
	Errors       int64    `json:"errors"`
	Stolen       int64    `json:"stolen"`
	MemoryUsedMB float64  `json:"memory_used_mb"`
	IdleUCs      int64    `json:"idle_ucs"`
	Cached       int64    `json:"cached_snapshots"`
	Breakers     []string `json:"breakers"`
	Robustness   struct {
		BreakerTrips int64 `json:"breaker_trips"`
		Requeued     int64 `json:"requeued"`
	} `json:"robustness"`
	SnapshotTier *struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Puts   int64 `json:"puts"`
	} `json:"snapshot_tier"`
	WorkingSet *struct {
		CoverageHits   int64 `json:"coverage_hits"`
		CoverageMisses int64 `json:"coverage_misses"`
	} `json:"working_set"`
}

// problems describes every problem /stats reports: contained errors and
// breakers that are not closed.
func (st nodeStats) problems() []string {
	var out []string
	if st.Errors != 0 {
		out = append(out, fmt.Sprintf("/stats errors = %d", st.Errors))
	}
	for i, b := range st.Breakers {
		if b != "closed" {
			out = append(out, fmt.Sprintf("shard %d breaker %s", i, b))
		}
	}
	return out
}
