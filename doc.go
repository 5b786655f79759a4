// Package sciview provides efficient object-relational views over
// scientific datasets stored as flat-file chunks distributed across storage
// nodes, reproducing the system of Narayanan, Kurc, Catalyurek and Saltz,
// "On Creating Efficient Object-relational Views of Scientific Datasets"
// (ICPP 2006).
//
// Scientific datasets — simulation outputs, sensor captures, imagery — are
// kept in application-specific flat files, not in a DBMS, because ingestion
// at terabyte scale is prohibitive. sciview layers an object-relational
// view on top of the files instead:
//
//   - Basic Data Sources (BDS) interpret file chunks as sub-tables using
//     registered extractor functions (row-major, column-major, CSV, or
//     custom layouts).
//   - Derived Data Sources (DDS) provide join-based views, range
//     selection, projection and aggregation over BDS tables.
//   - A MetaData Service resolves range predicates to chunks with an
//     R-tree over chunk bounding boxes.
//   - Two distributed join engines execute view queries: the page-level
//     Indexed Join (IJ), which schedules connected components of the
//     sub-table connectivity graph across compute nodes, and Grace Hash
//     (GH), which repartitions records into spill buckets.
//   - A Query Planning Service picks the engine using the paper's cost
//     models, calibrated to the host.
//
// The package runs against an emulated cluster — storage and compute nodes
// as goroutines with modeled disk, network and CPU resources — so the
// performance trade-offs of the paper (Figures 4–9) are reproducible on a
// single machine. See the examples directory for end-to-end usage,
// cmd/sciview-bench for the paper-figure sweeps and bench/ for the
// benchmark of the query service.
//
// Quick start:
//
//	ds, _ := sciview.GenerateOilReservoir(sciview.OilReservoirSpec{
//		Grid: sciview.Dims{X: 32, Y: 32, Z: 8},
//		LeftPart: sciview.Dims{X: 8, Y: 8, Z: 8},
//		RightPart: sciview.Dims{X: 8, Y: 8, Z: 8},
//		StorageNodes: 4,
//	})
//	sys, _ := sciview.NewSystem(ds, sciview.ClusterSpec{StorageNodes: 4, ComputeNodes: 2})
//	sys.Exec(`CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)`)
//	res, _ := sys.Exec(`SELECT AVG(wp) FROM V1 WHERE x BETWEEN 0 AND 15 GROUP BY z`)
package sciview
