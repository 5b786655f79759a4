// sciview-node runs one storage node's Basic Data Source Service as a
// standalone process, serving sub-tables over TCP — the deployment shape
// the paper targets, where BDS instances execute on the storage cluster
// and compute-node QES instances request sub-tables remotely.
//
// Serve a node:
//
//	sciview-node -data /tmp/reservoir -node 0 -addr 127.0.0.1:7070
//
// Fetch a sub-table from a running node (client mode):
//
//	sciview-node -fetch -addr 127.0.0.1:7070 -table 0 -chunk 3
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"sciview/internal/bds"
	"sciview/internal/metadata"
	"sciview/internal/metrics"
	"sciview/internal/repair"
	"sciview/internal/simio"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sciview-node: ")
	var (
		data        = flag.String("data", "", "dataset directory (serve mode)")
		node        = flag.Int("node", 0, "storage node id to serve")
		addr        = flag.String("addr", "127.0.0.1:0", "listen address (serve) or target address (fetch)")
		fetch       = flag.Bool("fetch", false, "client mode: fetch one sub-table and print it")
		table       = flag.Int("table", 0, "table id to fetch")
		chunk       = flag.Int("chunk", 0, "chunk id to fetch")
		metricsAddr = flag.String("metrics-addr", "", "serve live metrics (Prometheus text on /metrics, pprof on /debug/pprof/) at this address (serve mode; empty disables instrumentation)")
		repairEvery = flag.Duration("repair-interval", 0, "periodically verify this node's store against the catalog's placements — the integrity check the repair tier's rejoin path runs; broken objects are logged and exported as a gauge (0 disables)")
	)
	flag.Parse()

	if *fetch {
		conn, err := transport.DialAddr(bds.ServiceName(*node), *addr)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		client := bds.ClientFromConn(conn)
		st, err := client.SubTable(tuple.ID{Table: int32(*table), Chunk: int32(*chunk)}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sub-table %v: %d rows, schema %v\n", st.ID, st.NumRows(), st.Schema)
		limit := st.NumRows()
		if limit > 10 {
			limit = 10
		}
		for r := 0; r < limit; r++ {
			fmt.Println(st.Row(r, nil))
		}
		if limit < st.NumRows() {
			fmt.Printf("... (%d more rows)\n", st.NumRows()-limit)
		}
		return
	}

	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(filepath.Join(*data, "catalog.gob"))
	if err != nil {
		log.Fatal(err)
	}
	catalog := metadata.NewCatalog()
	if err := catalog.Load(bytes.NewReader(raw)); err != nil {
		log.Fatal(err)
	}
	store, err := simio.NewFileStore(filepath.Join(*data, fmt.Sprintf("node%d", *node)))
	if err != nil {
		log.Fatal(err)
	}
	disk := simio.NewDisk(store, 0, 0)
	svc := bds.New(*node, catalog, disk)

	var brokenObjects atomic.Int64
	if *repairEvery > 0 {
		go func() {
			ticker := time.NewTicker(*repairEvery)
			defer ticker.Stop()
			for range ticker.C {
				broken := repair.VerifyStore(catalog, *node, store.Size)
				prev := brokenObjects.Swap(int64(len(broken)))
				switch {
				case len(broken) > 0 && int64(len(broken)) != prev:
					log.Printf("repair: %d objects missing or truncated (first: %q); a cluster repair tier would rebuild them from replicas", len(broken), broken[0])
				case len(broken) == 0 && prev > 0:
					log.Printf("repair: store verify clean again")
				}
			}
		}()
		fmt.Printf("repair: verifying store against catalog every %v\n", *repairEvery)
	}

	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		transport.WireMetrics(reg)
		reg.CounterFunc("sciview_bds_subtables_served", "Sub-tables this BDS has served.", func() float64 {
			return float64(svc.Stats.SubTablesServed.Load())
		})
		reg.CounterFunc("sciview_bds_records_served", "Records this BDS has served.", func() float64 {
			return float64(svc.Stats.RecordsServed.Load())
		})
		if *repairEvery > 0 {
			reg.GaugeFunc("sciview_node_broken_objects", "Objects the periodic store verify found missing or truncated.", func() float64 {
				return float64(brokenObjects.Load())
			})
		}
		mcloser, maddr, err := metrics.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer mcloser.Close()
		fmt.Printf("metrics at http://%s/metrics (pprof on /debug/pprof/)\n", maddr)
	}

	tr := transport.NewTCP()
	closer, err := tr.ServeAddr(bds.ServiceName(*node), *addr, svc.Handler())
	if err != nil {
		log.Fatal(err)
	}
	actual, _ := tr.Addr(bds.ServiceName(*node))
	fmt.Printf("serving BDS for storage node %d at %s (ctrl-c to stop)\n", *node, actual)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop accepting, let requests already being handled
	// send their responses, then tear the connections down.
	fmt.Println("draining in-flight requests...")
	if err := closer.Close(); err != nil {
		log.Print(err)
	}
	fmt.Printf("served %d sub-tables (%d records)\n",
		svc.Stats.SubTablesServed.Load(), svc.Stats.RecordsServed.Load())
}
