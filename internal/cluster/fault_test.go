package cluster

import (
	"errors"
	"testing"
	"time"

	"seuss/internal/core"
	"seuss/internal/fault"
	"seuss/internal/sim"
	"seuss/internal/workload"
)

// TestInvokeOnEmptyCluster: a memberless cluster rejects invocations
// with ErrNoNodes rather than panicking in the balancer.
func TestInvokeOnEmptyCluster(t *testing.T) {
	eng := sim.NewEngine()
	c := &Cluster{eng: eng, fetching: map[string]bool{}}
	var err error
	eng.Go("client", func(p *sim.Proc) {
		_, _, err = c.Invoke(p, core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"})
	})
	eng.Run()
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

// TestClusterRetryRedeploysCrashedUC: a crashed UC consumes the retry
// budget, the balancer re-picks, and a fresh deploy from the immutable
// snapshot path serves the request — the caller never sees the crash.
func TestClusterRetryRedeploysCrashedUC(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Nodes:      2,
		MaxRetries: 2,
		// Every member's derived injector crashes its own first UC
		// invocation — so the retry must also survive landing on the
		// other, equally faulty, member before attempt three succeeds.
		Faults: fault.Config{
			Schedule: map[fault.Point][]uint64{fault.PointUCCrash: {1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"}
	res, _ := invoke(t, c, eng, req)
	// The crashed cold attempt already captured the function snapshot
	// (SEUSS captures before first execution), so the successful retry
	// deploys warm from it — that IS the containment property.
	if res.Path != core.PathWarm && res.Path != core.PathCold {
		t.Errorf("retry path = %v, want warm (snapshot survived) or cold", res.Path)
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Error("no retries recorded despite scheduled crashes")
	}
	// Backoff is real virtual time: at least the first 1 ms delay
	// elapsed on the cluster clock.
	if time.Duration(eng.Now()) < time.Millisecond {
		t.Errorf("clock = %v, want >= 1ms of backoff", time.Duration(eng.Now()))
	}
}

// TestClusterRetryBudgetExhausted: when every attempt crashes, the
// error surfaces after the budget — contained, so yet-higher layers
// may still retry — rather than looping forever.
func TestClusterRetryBudgetExhausted(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Nodes:      2,
		MaxRetries: 1,
		Faults: fault.Config{
			Schedule: map[fault.Point][]uint64{fault.PointUCCrash: {1, 2, 3, 4}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var invokeErr error
	eng.Go("client", func(p *sim.Proc) {
		_, _, invokeErr = c.Invoke(p, core.Request{Key: "fn", Source: workload.NOPSource, Args: "{}"})
	})
	eng.Run()
	if !errors.Is(invokeErr, core.ErrUCCrashed) {
		t.Fatalf("err = %v, want ErrUCCrashed", invokeErr)
	}
	if !fault.IsContained(invokeErr) {
		t.Error("exhausted-budget error lost its containment marker")
	}
	if c.Stats().Retries != 1 {
		t.Errorf("Retries = %d, want exactly the budget of 1", c.Stats().Retries)
	}
}

// TestClusterFaultDeterminism: the same cluster fault seed replays the
// same retry count, stats, and outcome.
func TestClusterFaultDeterminism(t *testing.T) {
	run := func() Stats {
		eng := sim.NewEngine()
		c, err := New(eng, Config{
			Nodes:      2,
			MaxRetries: 3,
			Faults:     fault.Config{Seed: 11, Rate: 0.25, Points: []fault.Point{fault.PointUCCrash}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			key := []string{"a/fn", "b/fn"}[i%2]
			eng.Go("client", func(p *sim.Proc) {
				_, _, err := c.Invoke(p, core.Request{Key: key, Source: workload.NOPSource, Args: "{}"})
				if err != nil && !fault.IsContained(err) {
					t.Errorf("uncontained error: %v", err)
				}
			})
			eng.Run()
		}
		return c.Stats()
	}
	st1 := run()
	st2 := run()
	if st1 != st2 {
		t.Fatalf("same seed, different cluster stats:\n%+v\n%+v", st1, st2)
	}
}
