package chaos

import (
	"context"
	"testing"

	"sciview/internal/engine"
)

// spillReq is the matrix request with a memory budget small enough that
// every joiner's build side round-trips through scratch (the per-joiner
// cap is budget / (2 · n_j), far below the ~512 B sub-tables).
func spillReq() engine.Request {
	req := chaosReq()
	req.MemoryBudget = 1 << 10
	return req
}

// TestSpillUnderChaos runs both engines out-of-core under the fault
// matrix's recovery scenarios: budget-forced spilling must compose with
// storage failover and injected scratch faults. A run either fails
// cleanly or produces rows identical to the fault-free in-memory result
// — a truncated spill file must never decode into partial output — and
// the scratch disks must be empty when the run ends, however it ends.
func TestSpillUnderChaos(t *testing.T) {
	ds := replicatedDataset(t)

	// Fault-free, unbudgeted references.
	want := map[string][]string{}
	for name, e := range engines() {
		cl, _ := chaosCluster(t, ds, "")
		res, err := engine.RunRequest(context.Background(), e, cl, chaosReq())
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		want[name] = rowsExact(res.Collected)
	}

	cases := []struct {
		name   string
		faults string
		// mustSucceed: the fault class has a full recovery path, so the
		// run must complete (and match the reference).
		mustSucceed bool
	}{
		{name: "no-faults", faults: "", mustSucceed: true},
		{name: "crash-storage", faults: "crash:storage-1:fetch:5", mustSucceed: true},
		{name: "shortwrite-scratch", faults: "shortwrite:compute-0:write:3,shortwrite:compute-2:write:4"},
		{name: "drop-scratch-read", faults: "drop:compute-1:read:3"},
	}
	for engName, e := range engines() {
		for _, tc := range cases {
			t.Run(engName+"/"+tc.name, func(t *testing.T) {
				cl, inj := chaosCluster(t, ds, tc.faults)
				res, err := engine.RunRequest(context.Background(), e, cl, spillReq())
				if tc.faults != "" {
					st := inj.Stats()
					if st.ShortWrites+st.Drops+st.Crashes == 0 {
						t.Errorf("no fault fired under %q; the scenario is vacuous", tc.faults)
					}
				}
				switch {
				case err != nil && tc.mustSucceed:
					t.Fatalf("run under %q: %v", tc.faults, err)
				case err == nil:
					sameRows(t, "result", rowsExact(res.Collected), want[engName])
					if res.Observed.SpillWriteBytes == 0 || res.Observed.SpillReadBytes == 0 {
						t.Errorf("budgeted run recorded no spill traffic: %+v", res.Observed)
					}
				}
				// The reap audit holds on every exit path.
				for j, cn := range cl.Compute {
					names, lerr := cn.Scratch.Store().List()
					if lerr != nil {
						t.Fatal(lerr)
					}
					if len(names) > 0 {
						t.Errorf("compute-%d scratch not reaped after %s: %v", j, tc.name, names)
					}
				}
			})
		}
	}
}
