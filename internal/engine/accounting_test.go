package engine_test

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/metrics"
	"sciview/internal/oilres"
	"sciview/internal/partition"
)

// account is what a Result reports of the cluster's counters.
func account(res *engine.Result) cluster.Account {
	return cluster.Account{Traffic: res.Traffic, Cache: res.Cache, Health: res.Health}
}

// counterValues parses the counter families of a Prometheus text scrape
// into series → value.
func counterValues(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	counters := map[string]bool{}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "# TYPE ") && f[3] == "counter" {
			counters[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		name, _, _ := strings.Cut(series, "{")
		if !counters[name] {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// subAll subtracts every run's account from a.
func subAll(a cluster.Account, runs []cluster.Account) cluster.Account {
	for _, r := range runs {
		a = a.Sub(r)
	}
	return a
}

// TestRunAccountingIsADifference pins that a run's Traffic, Cache and
// Health are the difference of the cluster's counters across the run,
// which themselves only count up. Two cold exclusive runs of one request
// on one engine report the same account, pinned to what each run reported
// when exclusive runs zeroed the counters instead; the raw counters then
// hold the sum of every run; no scraped counter ever decreases; and
// back-to-back shared runs each report their own window.
func TestRunAccountingIsADifference(t *testing.T) {
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(16, 16, 8), LeftPart: partition.D(8, 8, 8), RightPart: partition.D(4, 4, 8),
		StorageNodes: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	// A cache below the left working set makes the IJ runs evict.
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 3, ComputeNodes: 2, CacheBytes: 24 << 10, Metrics: reg,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := fullJoinReq(false)

	last := counterValues(t, reg)
	scrape := func(when string) {
		t.Helper()
		now := counterValues(t, reg)
		for series, v := range now {
			if v < last[series] {
				t.Errorf("%s: counter %s went down: %v -> %v", when, series, last[series], v)
			}
		}
		last = now
		raw := cl.Account()
		for series, v := range map[string]int64{
			"sciview_cache_hits_total":      raw.Cache.Hits,
			"sciview_cache_misses_total":    raw.Cache.Misses,
			"sciview_cache_evictions_total": raw.Cache.Evictions,
			"sciview_retry_total":           raw.Health.Retries,
			"sciview_failover_total":        raw.Health.Failovers,
		} {
			if now[series] != float64(v) {
				t.Errorf("%s: scraped %s = %v, the cluster counts %d", when, series, now[series], v)
			}
		}
	}

	ijRun := cluster.Account{
		Traffic: cluster.Traffic{StorageBytesRead: 65536, NetBytesToCompute: 65536},
		Cache:   cache.Stats{Hits: 12, Misses: 20, Evictions: 8},
	}
	var runs []cluster.Account
	for _, c := range []struct {
		e    engine.Engine
		want cluster.Account
	}{
		{ij.New(), ijRun},
		{gh.New(), cluster.Account{Traffic: cluster.Traffic{
			StorageBytesRead: 65536, ScratchBytesWritten: 65920, ScratchBytesRead: 65920, NetBytesToCompute: 65536,
		}}},
	} {
		var pair [2]cluster.Account
		for i := range pair {
			res, err := engine.RunRequest(ctx, c.e, cl, req)
			if err != nil {
				t.Fatal(err)
			}
			pair[i] = account(res)
			scrape(c.e.Name() + " run " + strconv.Itoa(i+1))
		}
		if pair[0] != pair[1] {
			t.Errorf("%s: two cold exclusive runs differ:\n%+v\n%+v", c.e.Name(), pair[0], pair[1])
		}
		if pair[0] != c.want {
			t.Errorf("%s: run account = %+v, want %+v", c.e.Name(), pair[0], c.want)
		}
		if pair[0].Health.BreakerTrips != 0 {
			t.Errorf("%s: %d breaker trips on a fault-free run", c.e.Name(), pair[0].Health.BreakerTrips)
		}
		runs = append(runs, pair[:]...)
	}
	// The cluster was new: its raw counters hold exactly the four runs.
	if left := subAll(cl.Account(), runs); left != (cluster.Account{}) {
		t.Errorf("raw counters hold %+v beyond the four runs' sum", left)
	}

	// Shared runs reset nothing. The first starts on the cache the last GH
	// run emptied, so it reads as a cold IJ run; the second starts on what
	// the first left, and the thrashing cache makes it move the same
	// bytes. Each reports its own window, and the two windows add up to
	// the counters' movement.
	before := cl.Account()
	req.Shared = true
	var shared [2]cluster.Account
	for i := range shared {
		res, err := engine.RunRequest(ctx, ij.New(), cl, req)
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = account(res)
		scrape("shared run " + strconv.Itoa(i+1))
	}
	if left := subAll(cl.Account().Sub(before), shared[:]); left != (cluster.Account{}) {
		t.Errorf("raw counters moved %+v beyond the two shared windows", left)
	}
	if shared[0] != ijRun {
		t.Errorf("cold shared run account = %+v, want %+v", shared[0], ijRun)
	}
	warm := ijRun
	warm.Cache.Evictions = 20 // the first run's leftovers go too
	if shared[1] != warm {
		t.Errorf("second shared run account = %+v, want %+v", shared[1], warm)
	}
}
