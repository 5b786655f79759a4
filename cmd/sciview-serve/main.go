// sciview-serve runs the concurrent query service as a standalone TCP
// server: an emulated cluster over a dataset directory, fronted by the
// admission controller, priority queue and fetch deduplicator, accepting
// join-view queries from many remote clients at once. SIGTERM/ctrl-c
// drains gracefully: in-flight queries finish, queued ones are refused.
//
// Serve:
//
//	sciview-serve -data /tmp/reservoir -addr 127.0.0.1:7080 \
//	    -compute 4 -max-inflight 4 -mem-budget 268435456
//
// A dataset generated with `sciview-gen -timesteps N` carries withheld
// time-step append batches; -replay-steps commits them on an interval
// while serving, so clients watch the dataset grow (each commit is one
// new dataset version; queries stay pinned to their admission version):
//
//	sciview-serve -data /tmp/reservoir -replay-steps 5s ...
//
// Submit a query from another process (client mode):
//
//	sciview-serve -query -addr 127.0.0.1:7080 -left T1 -right T2 \
//	    -on x,y,z -range x:0:31,y:0:15 -priority 2 -timeout 30s
//
// Read the server's counters:
//
//	sciview-serve -stats -addr 127.0.0.1:7080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sciview"
	"sciview/cmd/internal/clusterflags"
	"sciview/internal/engine"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/service"
	"sciview/internal/transport"
)

var (
	// Serve mode.
	clusterSpec = clusterflags.Register(flag.CommandLine)
	addr        = flag.String("addr", "127.0.0.1:0", "listen address (serve) or server address (client)")
	cacheBytes  = flag.Int64("cache", 64<<20, "per-compute-node sub-table cache bytes")
	maxInFlight = flag.Int("max-inflight", 4, "max concurrently executing queries")
	memBudget   = flag.Int64("mem-budget", 0, "working-set budget across in-flight queries in bytes (0 = unlimited)")
	strict      = flag.Bool("strict", false, "reject queries whose estimate exceeds -mem-budget instead of admitting them degraded (spilling to scratch)")
	maxQueue    = flag.Int("max-queue", 0, "max queued queries; excess fail fast (0 = unlimited)")
	force       = flag.String("engine", "", "force engine: ij or gh (default: cost-model choice per query)")
	noCalibrate = flag.Bool("no-calibrate", false, "pin the planner to the static configuration layer instead of folding observed run costs into the cost-model constants")
	faults      = flag.String("faults", "", "chaos schedule, e.g. crash:storage-1:fetch:20,delay:compute-0:write:2:5ms")
	prefetch    = flag.Int("prefetch", engine.DefaultPrefetch, "default IJ joiner lookahead depth for queries that leave it unset (0 = disabled)")
	metricsAddr = flag.String("metrics-addr", "", "serve live metrics (Prometheus text on /metrics, pprof on /debug/pprof/) at this address (serve mode; empty disables instrumentation)")
	replaySteps = flag.Duration("replay-steps", 0, "replay the dataset's withheld time-step batches (<data>/steps/, from sciview-gen -timesteps) at this interval while serving; queries in flight stay pinned to their admission version (0 disables)")
	repairEvery = flag.Duration("repair-interval", 0, "run the self-healing repair tier: catch up storage nodes revived by restart fault rules and re-replicate under-replicated chunks at this period (0 disables)")
	repairBw    = flag.Float64("repair-bw", 0, "repair copy-traffic bandwidth cap in bytes/s (0 = uncapped)")
	// Client mode.
	query    = flag.Bool("query", false, "client mode: submit one query and print the outcome")
	stats    = flag.Bool("stats", false, "client mode: print the server's service counters")
	left     = flag.String("left", "T1", "left (build) table")
	right    = flag.String("right", "T2", "right (probe) table")
	on       = flag.String("on", "x,y,z", "comma-separated join attributes")
	ranges   = flag.String("range", "", "filter, comma-separated attr:lo:hi triples (e.g. x:0:31,y:0:15)")
	priority = flag.Int("priority", 0, "admission priority (higher runs sooner)")
	timeout  = flag.Duration("timeout", 0, "query deadline; also enforced server-side (0 = none)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sciview-serve: ")
	flag.Parse()

	if *query || *stats {
		runClient(*addr, *query, *left, *right, *on, *ranges, *priority, *timeout)
		return
	}
	data, spec := clusterSpec()
	if data == "" {
		flag.Usage()
		os.Exit(2)
	}

	ds, err := sciview.OpenDataset(data)
	if err != nil {
		log.Fatal(err)
	}
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		transport.WireMetrics(reg)
	}
	spec.CacheBytes = *cacheBytes
	spec.Faults = *faults
	spec.Metrics = reg
	sys, err := sciview.NewSystem(ds, spec)
	if err != nil {
		log.Fatal(err)
	}
	svc := service.New(sys.Cluster(), service.Config{
		MaxInFlight:  *maxInFlight,
		MemoryBudget: *memBudget,
		Strict:       *strict,
		MaxQueue:     *maxQueue,
		Force:        *force,
		NoCalibrate:  *noCalibrate,
		Prefetch:     *prefetch,
		Metrics:      reg,
	})
	if *repairEvery > 0 {
		rep, err := sys.Repair(0, *repairEvery, *repairBw)
		if err != nil {
			log.Fatal(err)
		}
		rep.Start()
		defer rep.Stop()
		svc.AttachRepair(rep)
		fmt.Printf("repair: anti-entropy sweep every %v", *repairEvery)
		if *repairBw > 0 {
			fmt.Printf(", copy traffic capped at %.0f B/s", *repairBw)
		}
		fmt.Println()
	}
	if reg != nil {
		mcloser, maddr, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer mcloser.Close()
		fmt.Printf("metrics at http://%s/metrics (pprof on /debug/pprof/)\n", maddr)
	}

	if *replaySteps > 0 {
		batches, err := sciview.LoadBatches(data)
		if err != nil {
			log.Fatal(err)
		}
		if len(batches) == 0 {
			log.Fatalf("-replay-steps: no append batches under %s/steps/ (generate with sciview-gen -timesteps)", data)
		}
		ing, err := sys.Ingestor(1)
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			for _, b := range batches {
				time.Sleep(*replaySteps)
				v, err := ing.Append(b)
				if err != nil {
					log.Printf("ingest: step %d failed: %v", b.Step(), err)
					return
				}
				fmt.Printf("ingest: step %d committed as dataset version %d (%d chunks)\n",
					b.Step(), v, b.NumChunks())
			}
			fmt.Println("ingest: replay complete; dataset fully grown")
		}()
		fmt.Printf("ingest: replaying %d time-step batches every %v\n", len(batches), *replaySteps)
	}

	tr := transport.NewTCP()
	closer, err := tr.ServeAddr(service.DefaultServiceName, *addr, svc.Handler())
	if err != nil {
		log.Fatal(err)
	}
	actual, _ := tr.Addr(service.DefaultServiceName)
	fmt.Printf("query service at %s (%d slots", actual, *maxInFlight)
	if *memBudget > 0 {
		mode := "degraded admission"
		if *strict {
			mode = "strict admission"
		}
		fmt.Printf(", %d byte budget, %s", *memBudget, mode)
	}
	fmt.Println("; ctrl-c to drain and stop)")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining: refusing new queries, finishing in-flight...")
	if err := closer.Close(); err != nil { // TCP drain: responses still go out
		log.Print(err)
	}
	svc.Close() // admission drain: blocks until in-flight queries finish
	fmt.Println(svc.Stats())
}

func runClient(addr string, query bool, left, right, on, ranges string, priority int, timeout time.Duration) {
	conn, err := transport.DialAddr(service.DefaultServiceName, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	client := service.NewClient(conn)

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if !query { // -stats
		st, err := client.Stats(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(st)
		return
	}

	filter, err := parseRanges(ranges)
	if err != nil {
		log.Fatalf("-range: %v", err)
	}
	resp, err := client.Query(ctx, service.Query{
		Req: engine.Request{
			LeftTable:  left,
			RightTable: right,
			JoinAttrs:  strings.Split(on, ","),
			Filter:     filter,
		},
		Priority: priority,
	})
	if err != nil {
		log.Fatal(err)
	}
	degraded := ""
	if resp.Degraded {
		degraded = ", degraded: over budget, spilled to scratch"
	}
	fmt.Printf("%s: %d tuples in %v (queued %v, weight %d bytes%s)\n",
		resp.Result.Engine, resp.Result.Tuples,
		resp.Result.Elapsed.Round(time.Microsecond),
		resp.QueueWait.Round(time.Microsecond), resp.Weight, degraded)
}

// parseRanges parses comma-separated attr:lo:hi triples.
func parseRanges(s string) (metadata.Range, error) {
	var r metadata.Range
	if s == "" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(part, ":")
		if len(f) != 3 {
			return r, fmt.Errorf("want attr:lo:hi, got %q", part)
		}
		lo, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return r, fmt.Errorf("parsing %q: %w", part, err)
		}
		hi, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return r, fmt.Errorf("parsing %q: %w", part, err)
		}
		r.Attrs = append(r.Attrs, f[0])
		r.Lo = append(r.Lo, lo)
		r.Hi = append(r.Hi, hi)
	}
	return r, nil
}
