// Package cluster assembles the emulated hardware platform of the paper's
// experiments: a coupled configuration of storage nodes (disks + BDS
// instances) and compute nodes (scratch disks + sub-table caches),
// connected by per-node NICs with modeled bandwidths.
//
// Two storage configurations are supported, matching the paper:
//
//   - Local disks (default): each storage node has its own disk; each
//     compute node has a local scratch disk for Grace Hash buckets.
//   - Shared filesystem (Figure 9): a single NFS-like server performs all
//     I/O. Every node's disk handle shares one pair of read/write
//     throttles, so everybody's I/O — including bucket spills — contends
//     on the same device, and compute nodes have no local disks.
package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sciview/internal/bds"
	"sciview/internal/breaker"
	"sciview/internal/cache"
	"sciview/internal/fault"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/retry"
	"sciview/internal/simio"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

// Config describes the emulated hardware.
type Config struct {
	// StorageNodes and ComputeNodes set n_s and n_j.
	StorageNodes int
	ComputeNodes int
	// DiskReadBw/DiskWriteBw are per-disk bandwidths in bytes/second
	// (0 = unlimited): readIO_bw and writeIO_bw in the cost models.
	DiskReadBw  float64
	DiskWriteBw float64
	// NetBw is the per-NIC bandwidth in bytes/second (0 = unlimited).
	// The aggregate storage→compute bandwidth Net_bw(n_s, n_j) is
	// min(n_s, n_j) · NetBw.
	NetBw float64
	// SharedFS selects the single-NFS-server configuration.
	SharedFS bool
	// NFSContention is the shared server's thrash penalty: each request's
	// service time is multiplied by 1 + NFSContention·(concurrent clients − 1).
	// Only meaningful with SharedFS; 0 models an ideal work-conserving
	// server.
	NFSContention float64
	// CacheBytes is the capacity of each compute node's LRU sub-table cache.
	CacheBytes int64
	// CPUSecPerOp models the compute nodes' hash-operation cost: every
	// hash-table insertion or lookup a QES performs is charged this many
	// seconds on the node's CPU device (0 = free, i.e. only the real host
	// cost is paid). This is how the emulated cluster reproduces the
	// CPU/IO balance of the paper's PIII-era nodes — and it makes joiner
	// CPU a modeled resource that parallelizes across nodes regardless of
	// how many host cores the emulation itself has.
	CPUSecPerOp float64
	// Wire selects the fetch codec between storage and compute: "" or
	// "rowmajor" ships decoded row-major sub-tables (SVT1, the historical
	// format); "colenc" requests the compressed columnar format (SVT2)
	// — per-column RLE/dictionary/delta vectors of the rows that survive
	// selection and projection on the storage node, decoded only when a
	// joiner consumes the rows.
	Wire string
	// UseTCP serves every BDS instance over real TCP loopback sockets and
	// routes compute-node sub-table fetches through them (wire encoding
	// and all), instead of in-process calls. Modeled bandwidths still
	// apply on top. Close the cluster when done.
	UseTCP bool
	// Faults, when set, injects the chaos schedule into the cluster:
	// sub-table fetches, disk and scratch I/O, and (with UseTCP) transport
	// exchanges all consult it. Nil means no injection.
	Faults *fault.Injector
	// Retry is the per-replica fetch backoff policy. The zero value means
	// retry.Default() (3 attempts, 1ms base, 50ms cap, 0.5 jitter).
	Retry retry.Policy
	// ScratchStores, when set, supplies the backing store for compute
	// node j's scratch disk (hygiene tests audit spill-file lifecycles
	// through real file stores). Nil keeps in-memory stores. Ignored in
	// the shared-filesystem configuration.
	ScratchStores func(j int) simio.Store
	// BreakerThreshold and BreakerCooldown configure the per-storage-node
	// circuit breakers: trip after BreakerThreshold consecutive failures
	// (default 3), probe after BreakerCooldown (default 100ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Metrics, when set, wires the cluster's live observability surface
	// into the registry: fetch counts and bytes are pushed as they happen;
	// the cache, singleflight, breaker, retry and failover series sample
	// the counters the cluster already keeps. Nil leaves every hot path
	// on the no-op (near-zero cost) instruments.
	Metrics *metrics.Registry
}

// Validate checks the configuration; it is the one place an unknown or
// out-of-range config value is rejected.
func (c Config) Validate() error {
	if c.StorageNodes < 1 || c.ComputeNodes < 1 {
		return fmt.Errorf("cluster: need at least 1 storage and 1 compute node (got %d, %d)",
			c.StorageNodes, c.ComputeNodes)
	}
	switch c.Wire {
	case "", "rowmajor", "colenc":
	default:
		return fmt.Errorf("cluster: unknown wire codec %q (want \"rowmajor\" or \"colenc\")", c.Wire)
	}
	return nil
}

// WireEncoded reports whether fetches negotiate the compressed columnar
// wire format.
func (c Config) WireEncoded() bool { return c.Wire == "colenc" }

// WireName returns the effective fetch codec name ("rowmajor" or
// "colenc"), resolving the default.
func (c Config) WireName() string {
	if c.WireEncoded() {
		return "colenc"
	}
	return "rowmajor"
}

// NetAggregateBw returns Net_bw(n_s, n_j): the aggregate storage→compute
// bandwidth, limited by whichever side has fewer NICs.
func (c Config) NetAggregateBw() float64 {
	if c.NetBw <= 0 {
		return 0 // unlimited
	}
	n := c.StorageNodes
	if c.ComputeNodes < n {
		n = c.ComputeNodes
	}
	return float64(n) * c.NetBw
}

// StorageNode is one node of the storage cluster.
type StorageNode struct {
	ID   int
	Disk *simio.Disk
	NIC  *simio.NIC
	BDS  *bds.Service
}

// FetchKey identifies a cached (or in-flight) fetch result: the sub-table
// id plus a signature of the filter and projection that shaped it. Keying
// by id alone was safe while queries ran exclusively and caches were reset
// between runs; under the concurrent query service, queries with different
// predicates or projections share the node caches, and the signature keeps
// their entries from aliasing.
//
// Join is empty for a fetched sub-table. The rows IJ decoded from that
// sub-table, as the left side of a join, are kept under the same ID and
// Sig with Join naming the join attributes (JoinSig). The match pairs of
// one IJ edge — those rows joined with one right sub-table — are cached
// under the rows' key with Pairs set and RightID and RightSig naming the
// right sub-table's own key (PairKey): every field is compared, none is
// folded into a hash. No catalog version is needed: chunk ids are never
// reused and a chunk's bytes never change, so all three kinds of entry
// stay valid across appends.
type FetchKey struct {
	ID       tuple.ID
	Sig      uint64
	Join     string
	RightID  tuple.ID
	RightSig uint64
	Pairs    bool
}

// PairKey is the key of the match pairs of the left rows kept under k
// (its Join set) joined with the sub-table cached under right.
func (k FetchKey) PairKey(right FetchKey) FetchKey {
	k.RightID, k.RightSig, k.Pairs = right.ID, right.Sig, true
	return k
}

// JoinSig is FetchKey.Join for a left side joined on attrs: "(x,y,z)",
// never empty.
func JoinSig(attrs []string) string { return "(" + strings.Join(attrs, ",") + ")" }

// Signature hashes a fetch's shaping parameters (range filter and
// projection list) into a FetchKey signature.
func Signature(filter *metadata.Range, project []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeF := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	if filter != nil {
		for i, a := range filter.Attrs {
			h.Write([]byte(a))
			h.Write([]byte{0})
			writeF(filter.Lo[i])
			writeF(filter.Hi[i])
		}
	}
	h.Write([]byte{1})
	for _, p := range project {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// ComputeNode is one node of the compute cluster.
type ComputeNode struct {
	ID int
	// Scratch is the node's spill disk for out-of-core operations. In the
	// shared-filesystem configuration it is a handle on the NFS server.
	Scratch *simio.Disk
	NIC     *simio.NIC
	// Cache is the node's Caching Service instance for sub-tables. Values
	// are Fetched — compressed when the wire codec is "colenc" — and are
	// charged at StoredBytes, so resident accounting reflects the bytes
	// actually held rather than the decoded record size. IJ's kept left
	// rows and match pairs share it, admitted only into free room (see
	// cache.LRU.Admit), so they never displace a sub-table.
	Cache *cache.LRU[FetchKey, *Fetched]
	// Flight deduplicates concurrent fetches of one sub-table across the
	// queries sharing this node, so N simultaneous cache misses on a key
	// cost one BDS fetch.
	Flight *cache.Flight[FetchKey, *Fetched]
	// CPU is the node's modeled processor: QES instances charge hash
	// operations to it via SpendCPU.
	CPU *simio.Throttle
}

// SpendCPU charges ops hash operations to the node's modeled CPU,
// blocking for the modeled duration. With CPUSecPerOp = 0 it is free.
func (cn *ComputeNode) SpendCPU(ops int64) {
	simio.Wait(cn.CPU.Reserve(ops))
}

// Cluster is the assembled platform.
type Cluster struct {
	Config  Config
	Catalog *metadata.Catalog
	Storage []*StorageNode
	Compute []*ComputeNode

	// runMu arbitrates query executions. Exclusive runs (the historical
	// mode: engines reset caches and throttles at start) take
	// the write side; shared runs — queries admitted by the concurrent
	// query service, which leave cluster state intact so caches and
	// fetch deduplication amortize across queries — take the read side.
	runMu sync.RWMutex

	// nfsRead/nfsWrite are the shared-server throttles (SharedFS only).
	nfsRead  *simio.Throttle
	nfsWrite *simio.Throttle

	// TCP wiring (UseTCP only): per-storage-node servers and per
	// (compute, storage) client connections. Connections serialize their
	// request/response pairs internally.
	servers []io.Closer
	clients [][]*bds.Client // [computeID][storageNode]

	// breakers holds one circuit breaker per storage node; the fetch path
	// consults them before dialing and feeds outcomes back.
	breakers []*breaker.Breaker
	// states tracks each storage node's lifecycle (NodeUp / NodeDown /
	// NodeRejoining). The repair manager owns transitions; fetch routing
	// reads them to order replicas by availability.
	states []atomic.Int32
	// Health accumulates fault-tolerance counters (retries, failovers,
	// engine recoveries); see HealthStats.
	Health Health
	// met holds the live-metrics handles for what only the registry
	// counts (all nil-safe no-ops when Config.Metrics is nil).
	met clusterMetrics
}

// clusterMetrics is the cluster's push-style slice of the live registry.
type clusterMetrics struct {
	fetches       *metrics.Counter
	fetchEncBytes *metrics.Counter
	fetchDecBytes *metrics.Counter
	fetchFailures *metrics.Counter
}

// New assembles a cluster over the given catalog and per-storage-node
// object stores (stores[i] holds node i's chunks). len(stores) must equal
// cfg.StorageNodes.
func New(cfg Config, catalog *metadata.Catalog, stores []simio.Store) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(stores) != cfg.StorageNodes {
		return nil, fmt.Errorf("cluster: %d stores for %d storage nodes", len(stores), cfg.StorageNodes)
	}
	cl := &Cluster{Config: cfg, Catalog: catalog}
	cl.states = make([]atomic.Int32, cfg.StorageNodes)
	// Registry methods are nil-safe: with cfg.Metrics == nil every handle
	// below is a nil no-op instrument, so the hot paths stay uninstrumented
	// at the cost of one predicted branch each.
	reg := cfg.Metrics
	cl.met = clusterMetrics{
		fetches:       reg.Counter("sciview_fetch_total", "Sub-table fetches served to compute nodes."),
		fetchEncBytes: reg.Counter("sciview_fetch_encoded_bytes_total", "Bytes of sub-table fetches as they traveled the wire (compressed when the colenc codec is negotiated)."),
		fetchDecBytes: reg.Counter("sciview_fetch_decoded_bytes_total", "Row-major payload bytes the same fetches decode to; the ratio to encoded bytes is the live wire compression factor."),
		fetchFailures: reg.Counter("sciview_fetch_failures_total", "Fetches that failed after consulting every replica."),
	}
	cl.registerSampled(reg)
	if cfg.SharedFS {
		cl.nfsRead = simio.NewThrottle(cfg.DiskReadBw)
		cl.nfsWrite = simio.NewThrottle(cfg.DiskWriteBw)
		if cfg.NFSContention > 0 {
			const window = 200 * time.Millisecond
			cl.nfsRead.SetContention(cfg.NFSContention, window)
			cl.nfsWrite.SetContention(cfg.NFSContention, window)
		}
	}
	for i := 0; i < cfg.StorageNodes; i++ {
		var disk *simio.Disk
		if cfg.SharedFS {
			disk = simio.NewSharedDisk(stores[i], cl.nfsRead, cl.nfsWrite)
		} else {
			disk = simio.NewDisk(stores[i], cfg.DiskReadBw, cfg.DiskWriteBw)
		}
		disk.Owner = i
		if cfg.Faults != nil {
			node := fault.StorageNode(i)
			disk.Fault = func(op string) error { return cfg.Faults.Op(node, op) }
		}
		sn := &StorageNode{
			ID:   i,
			Disk: disk,
			NIC:  simio.NewNIC(cfg.NetBw, nil),
			BDS:  bds.New(i, catalog, disk),
		}
		cl.Storage = append(cl.Storage, sn)
		cl.breakers = append(cl.breakers, breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown))
	}
	for j := 0; j < cfg.ComputeNodes; j++ {
		var scratch *simio.Disk
		if cfg.SharedFS {
			scratch = simio.NewSharedDisk(simio.NewMemStore(), cl.nfsRead, cl.nfsWrite)
		} else {
			store := simio.Store(simio.NewMemStore())
			if cfg.ScratchStores != nil {
				store = cfg.ScratchStores(j)
			}
			scratch = simio.NewDisk(store, cfg.DiskReadBw, cfg.DiskWriteBw)
		}
		scratch.Owner = cfg.StorageNodes + j
		if cfg.Faults != nil {
			node := fault.ComputeNode(j)
			scratch.Fault = func(op string) error { return cfg.Faults.Op(node, op) }
		}
		var cpuRate float64
		if cfg.CPUSecPerOp > 0 {
			cpuRate = 1 / cfg.CPUSecPerOp // "ops per second"
		}
		flight := cache.NewFlight[FetchKey, *Fetched]()
		// A leader whose fetch hits a transient fault hands the key off:
		// waiters retry (and fail over) rather than inherit the error.
		flight.Retryable = transport.IsRetryable
		cn := &ComputeNode{
			ID:      j,
			Scratch: scratch,
			NIC:     simio.NewNIC(cfg.NetBw, nil),
			Cache:   cache.NewLRU[FetchKey, *Fetched](cfg.CacheBytes),
			Flight:  flight,
			CPU:     simio.NewThrottle(cpuRate),
		}
		cl.Compute = append(cl.Compute, cn)
	}
	if cfg.UseTCP {
		if err := cl.wireTCP(); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// wireTCP serves every BDS over TCP loopback and connects each compute
// node to each storage node. With fault injection configured, every
// client-side exchange passes through the chaos schedule first.
func (cl *Cluster) wireTCP() error {
	var tr transport.Transport = transport.NewTCP()
	if cl.Config.Faults != nil {
		tr = transport.NewFaulty(tr, cl.Config.Faults)
	}
	for _, sn := range cl.Storage {
		closer, err := sn.BDS.Serve(tr)
		if err != nil {
			return err
		}
		cl.servers = append(cl.servers, closer)
	}
	cl.clients = make([][]*bds.Client, len(cl.Compute))
	for j := range cl.Compute {
		cl.clients[j] = make([]*bds.Client, len(cl.Storage))
		for s := range cl.Storage {
			client, err := bds.DialNode(tr, s)
			if err != nil {
				return err
			}
			cl.clients[j][s] = client
		}
	}
	return nil
}

// Close releases TCP servers and connections (no-op for in-process
// clusters).
func (cl *Cluster) Close() error {
	var first error
	for _, row := range cl.clients {
		for _, c := range row {
			if c != nil {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	cl.clients = nil
	for _, s := range cl.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	cl.servers = nil
	return first
}

// Fetch retrieves sub-table id for compute node computeID: the owning
// storage node's BDS extracts it (paying disk read bandwidth) and the
// result is shipped over both NICs (paying network bandwidth). A non-nil
// project pushes the projection down, so only the named attributes travel.
// Fetch does not consult the compute node's cache — cache policy belongs
// to the QES.
//
// The result is the wire-form carrier: with Config.Wire = "colenc" the
// sub-table arrives (and is handed to the caller's cache) in its
// compressed columnar representation, and the modeled NIC transfer is
// charged the compressed frame size — the whole point of the codec in the
// paper's network-bound regimes. With the row-major codec the carrier
// wraps the decoded sub-table. Callers that want rows call SubTable on it.
//
// The fetch observes ctx: a cancelled or expired context aborts the TCP
// exchange (when the cluster is wired over sockets) and returns ctx.Err()
// rather than completing the transfer. Transient faults are retried with
// exponential backoff; when a replica node's attempts are exhausted (or
// its breaker is open) the fetch fails over to the chunk's next replica.
// Terminal errors — a *RemoteError, a cancelled context — abort
// immediately.
func (cl *Cluster) Fetch(ctx context.Context, computeID int, id tuple.ID, filter *metadata.Range, project []string) (*Fetched, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	desc, err := cl.Catalog.Chunk(id.Table, id.Chunk)
	if err != nil {
		return nil, err
	}
	if computeID < 0 || computeID >= len(cl.Compute) {
		return nil, fmt.Errorf("cluster: unknown compute node %d", computeID)
	}
	encoded := cl.Config.WireEncoded()
	f, node, err := cl.replicaFailover(ctx, desc, func(node int) (*Fetched, error) {
		if cl.clients != nil {
			if encoded {
				enc, err := cl.clients[computeID][node].SubTableEncoded(ctx, id, filter, project)
				if err != nil {
					return nil, err
				}
				return FetchedEncoded(enc), nil
			}
			st, err := cl.clients[computeID][node].SubTableProjected(ctx, id, filter, project)
			if err != nil {
				return nil, err
			}
			return FetchedSubTable(st), nil
		}
		if encoded {
			enc, err := cl.Storage[node].BDS.SubTableEncoded(id, filter, project)
			if err != nil {
				return nil, err
			}
			return FetchedEncoded(enc), nil
		}
		st, err := cl.Storage[node].BDS.SubTableProjected(id, filter, project)
		if err != nil {
			return nil, err
		}
		return FetchedSubTable(st), nil
	})
	if err != nil {
		return nil, err
	}
	wire := int64(f.WireBytes())
	cl.met.fetches.Inc()
	cl.met.fetchEncBytes.Add(wire)
	cl.met.fetchDecBytes.Add(int64(f.DecodedBytes()))
	simio.Transfer(cl.Storage[node].NIC, cl.Compute[computeID].NIC, wire)
	return f, nil
}

// Ship models sending size bytes from storage node s to compute node j
// (the record streams of Grace Hash partitioning).
func (cl *Cluster) Ship(s, j int, size int64) {
	simio.Transfer(cl.Storage[s].NIC, cl.Compute[j].NIC, size)
}

// AcquireRun takes the cluster exclusively for one query execution;
// ReleaseRun frees it. Engines call these around non-shared runs, which
// reset caches and throttle backlogs, so such runs cannot overlap with
// anything.
func (cl *Cluster) AcquireRun() { cl.runMu.Lock() }

// ReleaseRun releases the run lock taken by AcquireRun.
func (cl *Cluster) ReleaseRun() { cl.runMu.Unlock() }

// AcquireShared joins the cluster as one of several concurrent queries
// (engine.Request.Shared): caches are left warm and any number of shared
// runs may overlap. An exclusive run blocks until all shared runs finish,
// and vice versa.
func (cl *Cluster) AcquireShared() { cl.runMu.RLock() }

// ReleaseShared releases the hold taken by AcquireShared.
func (cl *Cluster) ReleaseShared() { cl.runMu.RUnlock() }

// FlightStats aggregates the fetch-deduplication counters across compute
// nodes.
func (cl *Cluster) FlightStats() cache.FlightStats {
	var total cache.FlightStats
	for _, cn := range cl.Compute {
		s := cn.Flight.Stats()
		total.Leads += s.Leads
		total.Shared += s.Shared
	}
	return total
}

// CacheStats aggregates the sub-table cache counters across compute
// nodes.
func (cl *Cluster) CacheStats() cache.Stats {
	var total cache.Stats
	for _, cn := range cl.Compute {
		s := cn.Cache.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
	}
	return total
}

// Reset returns the cluster to a cold state between experiment runs:
// it empties the caches and clears throttle backlogs and the modeled CPU
// clocks, without touching stored data. It zeroes no counter: every
// counter only counts up, and a run's accounting is a difference of two
// Account snapshots.
func (cl *Cluster) Reset() {
	for _, sn := range cl.Storage {
		sn.Disk.ReadThrottle().Reset()
		sn.Disk.WriteThrottle().Reset()
		sn.NIC.Throttle().Reset()
	}
	for _, cn := range cl.Compute {
		cn.Scratch.ReadThrottle().Reset()
		cn.Scratch.WriteThrottle().Reset()
		cn.NIC.Throttle().Reset()
		cn.Cache.Clear()
		cn.CPU.Reset()
	}
	if cl.nfsRead != nil {
		cl.nfsRead.Reset()
	}
	if cl.nfsWrite != nil {
		cl.nfsWrite.Reset()
	}
}

// Traffic aggregates byte counters across the cluster.
type Traffic struct {
	StorageBytesRead    int64
	ScratchBytesWritten int64
	ScratchBytesRead    int64
	NetBytesToCompute   int64
}

// Traffic returns the aggregated byte counters since the cluster was
// built; a run's traffic is the difference of two Account snapshots.
func (cl *Cluster) Traffic() Traffic {
	var t Traffic
	for _, sn := range cl.Storage {
		t.StorageBytesRead += sn.Disk.Counters.BytesRead.Load()
	}
	for _, cn := range cl.Compute {
		t.ScratchBytesWritten += cn.Scratch.Counters.BytesWritten.Load()
		t.ScratchBytesRead += cn.Scratch.Counters.BytesRead.Load()
		t.NetBytesToCompute += cn.NIC.Counters.BytesRecv.Load()
	}
	return t
}

// Account is a snapshot of the counters a run reports: bytes moved,
// sub-table cache effectiveness and fault-tolerance activity. The
// counters only count up, so what happened between two snapshots is
// their difference (Sub).
type Account struct {
	Traffic Traffic
	Cache   cache.Stats
	Health  HealthStats
}

// Account snapshots the cluster's run counters.
func (cl *Cluster) Account() Account {
	return Account{Traffic: cl.Traffic(), Cache: cl.CacheStats(), Health: cl.HealthStats()}
}

// Sub returns what a counts beyond the earlier snapshot b.
func (a Account) Sub(b Account) Account {
	return Account{
		Traffic: Traffic{
			StorageBytesRead:    a.Traffic.StorageBytesRead - b.Traffic.StorageBytesRead,
			ScratchBytesWritten: a.Traffic.ScratchBytesWritten - b.Traffic.ScratchBytesWritten,
			ScratchBytesRead:    a.Traffic.ScratchBytesRead - b.Traffic.ScratchBytesRead,
			NetBytesToCompute:   a.Traffic.NetBytesToCompute - b.Traffic.NetBytesToCompute,
		},
		Cache: cache.Stats{
			Hits:      a.Cache.Hits - b.Cache.Hits,
			Misses:    a.Cache.Misses - b.Cache.Misses,
			Evictions: a.Cache.Evictions - b.Cache.Evictions,
		},
		Health: HealthStats{
			Retries:      a.Health.Retries - b.Health.Retries,
			Failovers:    a.Health.Failovers - b.Health.Failovers,
			BreakerTrips: a.Health.BreakerTrips - b.Health.BreakerTrips,
			Recoveries:   a.Health.Recoveries - b.Health.Recoveries,
			Rebuilds:     a.Health.Rebuilds - b.Health.Rebuilds,
		},
	}
}

// registerSampled exposes the counts the cluster already keeps as series
// sampled at scrape time. It runs before the nodes exist; the callbacks
// read them when scraped.
func (cl *Cluster) registerSampled(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	counter := func(name, help string, fn func() int64, labelPairs ...string) {
		reg.CounterFunc(name, help, func() float64 { return float64(fn()) }, labelPairs...)
	}
	counter("sciview_cache_hits_total", "Sub-table cache hits across compute nodes.",
		func() int64 { return cl.CacheStats().Hits })
	counter("sciview_cache_misses_total", "Sub-table cache misses across compute nodes.",
		func() int64 { return cl.CacheStats().Misses })
	counter("sciview_cache_evictions_total", "Sub-table cache evictions across compute nodes.",
		func() int64 { return cl.CacheStats().Evictions })
	counter("sciview_flight_leads_total", "Singleflight loads actually executed.",
		func() int64 { return cl.FlightStats().Leads })
	counter("sciview_flight_shared_total", "Singleflight callers served by another caller's load.",
		func() int64 { return cl.FlightStats().Shared })
	counter("sciview_retry_total", "Backoff re-attempts against the same replica.", cl.Health.Retries.Load)
	counter("sciview_failover_total", "Fetches redirected to a subsequent replica.", cl.Health.Failovers.Load)
	reg.GaugeFunc("sciview_cache_bytes", "Bytes resident in the sub-table caches across compute nodes.", func() float64 {
		var b int64
		for _, cn := range cl.Compute {
			b += cn.Cache.Bytes()
		}
		return float64(b)
	})
	reg.GaugeFunc("sciview_cache_entries", "Entries resident in the sub-table caches across compute nodes.", func() float64 {
		var n int
		for _, cn := range cl.Compute {
			n += cn.Cache.Len()
		}
		return float64(n)
	})
	for i := 0; i < cl.Config.StorageNodes; i++ {
		node := strconv.Itoa(i)
		counter("sciview_breaker_trips_total", "Circuit breaker opens per storage node.",
			func() int64 { return cl.breakers[i].Trips() }, "node", node)
		reg.GaugeFunc("sciview_breaker_state", "Breaker state per storage node (0 closed, 1 open, 2 half-open).",
			func() float64 { return float64(cl.breakers[i].State()) }, "node", node)
	}
}
