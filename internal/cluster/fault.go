package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"sciview/internal/breaker"
	"sciview/internal/chunk"
	"sciview/internal/fault"
	"sciview/internal/metadata"
	"sciview/internal/retry"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

// Health accumulates the cluster's fault-tolerance activity. Fields are
// incremented atomically by the fetch path and the recovering engines, and
// only count up.
type Health struct {
	// Retries counts backoff re-attempts against the same replica.
	Retries atomic.Int64
	// Failovers counts fetches redirected to a subsequent replica.
	Failovers atomic.Int64
	// Recoveries counts engine-level re-executions after a compute-node
	// death (IJ schedule slots, GH partition groups).
	Recoveries atomic.Int64
	// Rebuilds counts GH partition groups rebuilt from replicas after
	// their partitions were lost with a node.
	Rebuilds atomic.Int64
}

// HealthStats is a point-in-time copy of Health plus the breaker trip
// total, the shape surfaced through the service stats RPC.
type HealthStats struct {
	Retries      int64
	Failovers    int64
	BreakerTrips int64
	Recoveries   int64
	Rebuilds     int64
}

// Zero reports whether no fault-tolerance activity was recorded.
func (h HealthStats) Zero() bool { return h == HealthStats{} }

// HealthStats snapshots the cluster's fault-tolerance counters, counted
// since the cluster was built.
func (cl *Cluster) HealthStats() HealthStats {
	hs := HealthStats{
		Retries:    cl.Health.Retries.Load(),
		Failovers:  cl.Health.Failovers.Load(),
		Recoveries: cl.Health.Recoveries.Load(),
		Rebuilds:   cl.Health.Rebuilds.Load(),
	}
	for _, br := range cl.breakers {
		hs.BreakerTrips += br.Trips()
	}
	return hs
}

// StorageBreaker exposes storage node i's circuit breaker (planner checks,
// tests).
func (cl *Cluster) StorageBreaker(i int) *breaker.Breaker { return cl.breakers[i] }

// ComputeDown reports whether the chaos schedule has crashed compute node
// j. Without an injector every node is alive.
func (cl *Cluster) ComputeDown(j int) bool {
	return cl.Config.Faults.Down(fault.ComputeNode(j))
}

// NodeState is a storage node's lifecycle state as tracked by the repair
// tier. A node is born NodeUp; the repair manager marks it NodeDown when
// the chaos schedule (or a real crash) takes it out, NodeRejoining while
// catch-up replay runs, and NodeUp again once it has converged to the head
// catalog version.
type NodeState int32

const (
	NodeUp        NodeState = 0
	NodeDown      NodeState = 1
	NodeRejoining NodeState = 2
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	case NodeRejoining:
		return "rejoining"
	default:
		return fmt.Sprintf("NodeState(%d)", int32(s))
	}
}

// StorageState returns storage node i's lifecycle state.
func (cl *Cluster) StorageState(i int) NodeState {
	if i < 0 || i >= len(cl.states) {
		return NodeDown
	}
	return NodeState(cl.states[i].Load())
}

// SetStorageState records a lifecycle transition for storage node i. The
// repair manager is the writer; routing reads.
func (cl *Cluster) SetStorageState(i int, s NodeState) {
	if i >= 0 && i < len(cl.states) {
		cl.states[i].Store(int32(s))
	}
}

// StorageAvailable reports whether storage node i should serve reads: its
// lifecycle state is NodeUp and the chaos schedule does not currently hold
// it down. A rejoining node is NOT available — its store may be behind the
// catalog — but routing still tries non-available nodes last rather than
// failing a fetch that a stale-but-complete replica could serve.
func (cl *Cluster) StorageAvailable(i int) bool {
	if i < 0 || i >= len(cl.states) {
		return false
	}
	if NodeState(cl.states[i].Load()) != NodeUp {
		return false
	}
	return !cl.Config.Faults.Down(fault.StorageNode(i))
}

// errBreakerOpen marks a replica skipped because its breaker refused the
// call. It wraps ErrUnavailable so callers classify it as a transient
// fault, but the retry loop treats it as final for that node — backing off
// against an open breaker is pointless; the next replica is the answer.
var errBreakerOpen = fmt.Errorf("cluster: breaker open: %w", transport.ErrUnavailable)

// replicaFailover runs try against each node holding a copy of desc, in
// replica order with available (NodeUp, not chaos-downed) nodes first,
// until one succeeds. Nodes the repair tier knows to be down or rejoining
// are still tried — last — as a correctness fallback: a stale lifecycle
// view must never fail a fetch that a live replica could serve. Per node
// it applies the retry policy (with deterministic jitter keyed to the
// chunk and node), consults and feeds the node's breaker, and counts ops
// against the chaos schedule. It returns the sub-table and the node that
// served it.
func (cl *Cluster) replicaFailover(ctx context.Context, desc *chunk.Desc, try func(node int) (*Fetched, error)) (*Fetched, int, error) {
	id := desc.ID()
	// The placement list is read through the catalog lock: repair may be
	// committing new replicas concurrently.
	nodes, err := cl.Catalog.ChunkNodes(id.Table, id.Chunk)
	if err != nil {
		nodes = desc.Nodes() // not registered (tests): fall back to the descriptor
	}
	// Order by the repair tier's lifecycle view, not the injector's oracle
	// state: a node nobody has detected as down is still tried (and its
	// retries/breaker trips are how downness gets noticed).
	if len(nodes) > 1 {
		ordered := make([]int, 0, len(nodes))
		for _, n := range nodes {
			if cl.StorageState(n) == NodeUp {
				ordered = append(ordered, n)
			}
		}
		for _, n := range nodes {
			if cl.StorageState(n) != NodeUp {
				ordered = append(ordered, n)
			}
		}
		nodes = ordered
	}
	var lastErr error
	for i, node := range nodes {
		if node < 0 || node >= len(cl.Storage) {
			lastErr = fmt.Errorf("cluster: chunk %v replica on unknown node %d", id, node)
			continue
		}
		if i > 0 {
			cl.Health.Failovers.Add(1)
		}
		br := cl.breakers[node]
		p := cl.Config.Retry
		// Decorrelate jitter across chunks and replicas while keeping the
		// schedule deterministic for a given (policy seed, chunk, node).
		p.Seed ^= uint64(id.Table)<<40 ^ uint64(uint32(id.Chunk))<<8 ^ uint64(node)
		p.Retryable = func(err error) bool {
			return !errors.Is(err, errBreakerOpen) && transport.IsRetryable(err)
		}
		var st *Fetched
		err := retry.Do(ctx, p, func(attempt int) error {
			if attempt > 0 {
				cl.Health.Retries.Add(1)
			}
			if !br.Allow() {
				return fmt.Errorf("storage node %d: %w", node, errBreakerOpen)
			}
			if ferr := cl.Config.Faults.Op(fault.StorageNode(node), fault.OpFetch); ferr != nil {
				br.Failure()
				return ferr
			}
			got, ferr := try(node)
			if ferr != nil {
				if transport.IsRetryable(ferr) {
					br.Failure()
				}
				return ferr
			}
			br.Success()
			st = got
			return nil
		})
		if err == nil {
			return st, node, nil
		}
		lastErr = err
		if !transport.IsRetryable(err) {
			// Terminal: the handler executed and refused (RemoteError), or
			// the caller's context died. No replica can change the answer.
			cl.met.fetchFailures.Inc()
			return nil, -1, err
		}
	}
	cl.met.fetchFailures.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: chunk %v has no replicas", id)
	}
	return nil, -1, fmt.Errorf("cluster: chunk %v: all %d replicas failed: %w", id, len(nodes), lastErr)
}

// ScanChunk reads, extracts, filters and projects one chunk storage-side
// for the Grace Hash partitioning scan, failing over to replica-holding
// nodes when the preferred one is unreachable. Unlike Fetch it
// pays no compute-NIC transfer — the partitioner ships its routed batches
// separately — and it returns the node that actually served the chunk so
// shipping is attributed to the right NIC.
func (cl *Cluster) ScanChunk(ctx context.Context, desc *chunk.Desc, filter *metadata.Range, project []string) (*tuple.SubTable, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, -1, err
	}
	f, node, err := cl.replicaFailover(ctx, desc, func(node int) (*Fetched, error) {
		st, err := cl.Storage[node].BDS.SubTableProjected(desc.ID(), filter, project)
		if err != nil {
			return nil, err
		}
		return FetchedSubTable(st), nil
	})
	if err != nil {
		return nil, node, err
	}
	st, err := f.SubTable()
	return st, node, err
}
