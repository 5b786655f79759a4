// Deployment shapes: the same view framework running against (1) a
// persistent on-disk dataset, and (2) Basic Data Source services on real
// TCP sockets — the paper's target architecture, where BDS instances
// execute on storage nodes and compute-node QES instances request
// sub-tables remotely.
//
// The dataset is stored in the run-length encoded "rle" chunk format, so
// every fetch pays the extractor's real decode work.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sciview"
)

func main() {
	log.SetFlags(0)
	dir := filepath.Join(os.TempDir(), "sciview-deployment-demo")
	defer os.RemoveAll(dir)

	// 1. Generate once, persist to a dataset directory (what a simulation
	// campaign or ingest pipeline would produce).
	gen, err := sciview.GenerateOilReservoir(sciview.OilReservoirSpec{
		Grid:         sciview.Dims{X: 32, Y: 32, Z: 8},
		LeftPart:     sciview.Dims{X: 8, Y: 8, Z: 8},
		RightPart:    sciview.Dims{X: 8, Y: 8, Z: 4},
		StorageNodes: 3,
		Format:       "rle", // compressed chunks: smaller files, real decode work
		Seed:         5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sciview.SaveDataset(gen, dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset persisted under %s\n", dir)

	// 2. Reopen from disk — only the catalog loads; chunk bytes stay in
	// the node directories until queries need them.
	ds, err := sciview.OpenDataset(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened: tables %v on %d storage nodes\n\n", ds.Tables(), ds.StorageNodes())

	// 3. Run with BDS services on real TCP loopback sockets: every
	// sub-table fetch crosses the wire codec and a socket, on top of the
	// modeled disk/network bandwidths.
	sys, err := sciview.NewSystem(ds, sciview.ClusterSpec{
		ComputeNodes: 3,
		DiskReadBw:   25e6, DiskWriteBw: 20e6, NetBw: 12e6,
		UseTCP: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	if _, err := sys.Exec(`CREATE VIEW V AS SELECT * FROM T1 JOIN T2 ON (x, y, z)`); err != nil {
		log.Fatal(err)
	}
	res, err := sys.Exec(`SELECT COUNT(*) FROM V`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full view over TCP: %d tuples via %s in %v\n",
		res.Plan.Tuples, res.Plan.Engine, res.Plan.Measured)

	res, err = sys.Exec(`SELECT AVG(wp), MIN(oilp) FROM V WHERE x BETWEEN 8 AND 23 GROUP BY z`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-plane statistics of the central region:")
	res.Rows.WriteTo(os.Stdout, 4)
}
