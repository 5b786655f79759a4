package main

import (
	"fmt"
	"time"

	"sciview"
	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/colenc"
	"sciview/internal/congraph"
	"sciview/internal/hashjoin"
	"sciview/internal/metadata"
	"sciview/internal/scratch"
	"sciview/internal/simio"
	"sciview/internal/transport"
	"sciview/internal/tuple"
)

// Layer probes: each times one layer's public functions directly, on the
// workload's own chunks and filters, one goroutine, no service around it.
// They price a layer in isolation, so a change to that layer shows here
// even on a workload whose wall clock it barely moves.

const probeRounds = 3 // each probe repeats and reports its median rate

// rate runs fn probeRounds times; fn returns the amount of work it did.
// The median of work per second, divided by scale, becomes metric name.
func rate(m map[string]metric, name, unit string, scale float64, fn func() (float64, error)) error {
	var rates []float64
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		work, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rates = append(rates, work/time.Since(t0).Seconds())
	}
	m[name] = metric{median(rates) / scale, unit}
	return nil
}

// probeCluster returns an unthrottled, in-process cluster holding the
// workload's data: the stack's own unless that one is throttled or on
// TCP, in which case an unthrottled twin is generated from the same seed.
func probeCluster(s *stack, seed int64) (cl *cluster.Cluster, done func(), err error) {
	spec := s.w.cluster
	if spec.DiskReadBw == 0 && spec.NetBw == 0 && !spec.UseTCP {
		return s.sys.Cluster(), func() {}, nil
	}
	ds, _, err := generate(s.w, seed)
	if err != nil {
		return nil, nil, err
	}
	sys, err := sciview.NewSystem(ds, sciview.ClusterSpec{ComputeNodes: 1})
	if err != nil {
		return nil, nil, err
	}
	return sys.Cluster(), func() { sys.Close() }, nil
}

// tablesOf lists the base tables a statement reads.
func (st *statement) tablesOf() []string {
	if st.sel.From == "V1" {
		return []string{"T1", "T2"}
	}
	return []string{st.sel.From}
}

// runProbes adds the probe-measured per-layer metrics to m.
func runProbes(s *stack, seed int64, m map[string]metric) error {
	cl, done, err := probeCluster(s, seed)
	if err != nil {
		return err
	}
	defer done()
	left, err := cl.Catalog.ChunksInRange("T1", metadata.Range{})
	if err != nil {
		return err
	}
	right, err := cl.Catalog.ChunksInRange("T2", metadata.Range{})
	if err != nil {
		return err
	}
	extract := func(d *chunk.Desc) (*tuple.SubTable, error) {
		return cl.Storage[d.Node].BDS.SubTable(tuple.ID{Table: d.Table, Chunk: d.Chunk}, nil)
	}
	var lefts, rights, all []*tuple.SubTable
	for _, d := range left {
		st, err := extract(d)
		if err != nil {
			return err
		}
		lefts = append(lefts, st)
	}
	for _, d := range right {
		st, err := extract(d)
		if err != nil {
			return err
		}
		rights = append(rights, st)
	}
	all = append(append(all, lefts...), rights...)
	var allBytes float64
	for _, st := range all {
		allBytes += float64(st.Bytes())
	}

	if err := probeMetadata(s, cl, m); err != nil {
		return err
	}
	if err := probeBDS(s, cl, m); err != nil {
		return err
	}
	if err := probeHashjoin(left, right, lefts, rights, m); err != nil {
		return err
	}

	// colenc: encode = column analysis + SVT2 framing; decode = frame
	// parse + row-major materialization, over every chunk.
	var frames [][]byte
	var stored, decoded float64
	err = rate(m, "colenc.encode_mbps", "MB/s", mb, func() (float64, error) {
		frames, stored, decoded = frames[:0], 0, 0
		for _, st := range all {
			t := colenc.FromSubTable(st)
			frames = append(frames, colenc.Encode(nil, t))
			stored += float64(t.StoredBytes())
			decoded += float64(t.DecodedBytes())
		}
		return allBytes, nil
	})
	if err != nil {
		return err
	}
	m["colenc.ratio"] = metric{stored / decoded, "ratio"}
	err = rate(m, "colenc.decode_mbps", "MB/s", mb, func() (float64, error) {
		for _, fr := range frames {
			t, _, err := colenc.Decode(fr)
			if err != nil {
				return 0, err
			}
			if _, err := t.SubTable(); err != nil {
				return 0, err
			}
		}
		return allBytes, nil
	})
	if err != nil {
		return err
	}

	// tuple: the row-major SVT1 wire codec over every chunk.
	err = rate(m, "tuple.encode_mbps", "MB/s", mb, func() (float64, error) {
		frames = frames[:0]
		for _, st := range all {
			frames = append(frames, tuple.Encode(nil, st))
		}
		return allBytes, nil
	})
	if err != nil {
		return err
	}
	err = rate(m, "tuple.decode_mbps", "MB/s", mb, func() (float64, error) {
		for _, fr := range frames {
			if _, _, err := tuple.Decode(fr); err != nil {
				return 0, err
			}
		}
		return allBytes, nil
	})
	if err != nil {
		return err
	}

	// scratch: spill-file write and read-back on an unthrottled in-memory
	// disk, every chunk as one file.
	mgr := scratch.NewManager(simio.NewDisk(simio.NewMemStore(), 0, 0), "probe", "probe", nil, nil)
	var files []*scratch.File
	err = rate(m, "scratch.write_mbps", "MB/s", mb, func() (float64, error) {
		mgr.ReleaseAll()
		files = files[:0]
		for _, st := range all {
			f := mgr.Create("chunk")
			data := scratch.EncodeRows(st)
			err := f.AppendRows(data, int64(st.NumRows()))
			tuple.PutBuf(data)
			if err != nil {
				return 0, err
			}
			files = append(files, f)
		}
		return allBytes, nil
	})
	if err != nil {
		return err
	}
	err = rate(m, "scratch.read_mbps", "MB/s", mb, func() (float64, error) {
		for i, f := range files {
			data, err := f.ReadAll()
			if err != nil {
				return 0, err
			}
			if _, err := scratch.DecodeRows(all[i].Schema, data, all[i].ID); err != nil {
				return 0, err
			}
		}
		return allBytes, nil
	})
	mgr.ReleaseAll()
	if err != nil {
		return err
	}

	return probeTransport(m)
}

// probeMetadata times Catalog.ChunksInRange on each statement's range.
func probeMetadata(s *stack, cl *cluster.Cluster, m map[string]metric) error {
	const reps = 200
	lookups := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, st := range s.stmts {
			for _, table := range st.tablesOf() {
				if _, err := cl.Catalog.ChunksInRange(table, st.rng); err != nil {
					return err
				}
				lookups++
			}
		}
	}
	m["metadata.range_lookup_us"] = metric{us(time.Since(t0)) / float64(lookups), "us"}
	return nil
}

// probeBDS times sub-table extraction — chunk read, parse, filter — for
// every chunk each statement's range selects, row-major and encoded.
// Both rates count decoded output bytes, so they compare directly.
func probeBDS(s *stack, cl *cluster.Cluster, m map[string]metric) error {
	type job struct {
		d   *chunk.Desc
		rng *metadata.Range
	}
	var jobs []job
	var rowsIn float64
	for _, st := range s.stmts {
		for _, table := range st.tablesOf() {
			descs, err := cl.Catalog.ChunksInRange(table, st.rng)
			if err != nil {
				return err
			}
			for _, d := range descs {
				jobs = append(jobs, job{d, &st.rng})
				rowsIn += float64(d.Rows)
			}
		}
	}
	var rowsOut float64
	err := rate(m, "bds.extract_mbps", "MB/s", mb, func() (float64, error) {
		var bytes float64
		rowsOut = 0
		for _, j := range jobs {
			st, err := cl.Storage[j.d.Node].BDS.SubTableProjected(tuple.ID{Table: j.d.Table, Chunk: j.d.Chunk}, j.rng, nil)
			if err != nil {
				return 0, err
			}
			bytes += float64(st.Bytes())
			rowsOut += float64(st.NumRows())
		}
		return bytes, nil
	})
	if err != nil {
		return err
	}
	m["bds.rows_kept_frac"] = metric{rowsOut / rowsIn, "ratio"}
	return rate(m, "bds.extract_encoded_mbps", "MB/s", mb, func() (float64, error) {
		var bytes float64
		for _, j := range jobs {
			t, err := cl.Storage[j.d.Node].BDS.SubTableEncoded(tuple.ID{Table: j.d.Table, Chunk: j.d.Chunk}, j.rng, nil)
			if err != nil {
				return 0, err
			}
			bytes += float64(t.DecodedBytes())
		}
		return bytes, nil
	})
}

// probeHashjoin times the join kernels over every bounding-box-connected
// (left, right) sub-table pair, in million tuples per second: one build
// per left sub-table, one probe per pair, and the out-of-core pair join
// with the build side capped at a quarter of a left sub-table.
func probeHashjoin(left, right []*chunk.Desc, lefts, rights []*tuple.SubTable, m map[string]metric) error {
	keys := []string{"x", "y", "z"}
	g, err := congraph.Build(left, right, keys)
	if err != nil {
		return err
	}
	if len(g.Edges) == 0 {
		return fmt.Errorf("hashjoin probe: no connected sub-table pairs")
	}
	outSchema := lefts[0].Schema.JoinResult(rights[0].Schema, keys, "r_")
	tables := make([]*hashjoin.HashTable, len(lefts))
	err = rate(m, "hashjoin.build_mtps", "Mtuple/s", 1e6, func() (float64, error) {
		var tuples float64
		for i, l := range lefts {
			ht, err := hashjoin.BuildParallel(l, keys, 1, 0, nil)
			if err != nil {
				return 0, err
			}
			tables[i] = ht
			tuples += float64(l.NumRows())
		}
		return tuples, nil
	})
	if err != nil {
		return err
	}
	err = rate(m, "hashjoin.probe_mtps", "Mtuple/s", 1e6, func() (float64, error) {
		var tuples float64
		for _, e := range g.Edges {
			out := tuple.NewSubTable(tuple.ID{Table: -1}, outSchema, 0)
			if _, err := tables[e.Left].ProbeParallel(rights[e.Right], keys, 1, 0, out, nil); err != nil {
				return 0, err
			}
			tuples += float64(rights[e.Right].NumRows())
		}
		return tuples, nil
	})
	if err != nil {
		return err
	}

	mgr := scratch.NewManager(simio.NewDisk(simio.NewMemStore(), 0, 0), "probe", "probe", nil, nil)
	hooks := hashjoin.SpillHooks{RoundTrip: func(label string, st *tuple.SubTable) (*tuple.SubTable, error) {
		f := mgr.Create(label)
		defer mgr.Release(f)
		data := scratch.EncodeRows(st)
		err := f.AppendRows(data, int64(st.NumRows()))
		tuple.PutBuf(data)
		if err != nil {
			return nil, err
		}
		back, err := f.ReadAll()
		if err != nil {
			return nil, err
		}
		return scratch.DecodeRows(st.Schema, back, st.ID)
	}}
	part := func(key, salt uint64) uint64 { // splitmix-style, as the engines salt theirs
		key ^= (salt + 1) * 0x9E3779B97F4A7C15
		key ^= key >> 33
		key *= 0xFF51AFD7ED558CCD
		key ^= key >> 33
		return key
	}
	return rate(m, "hashjoin.spilljoin_mtps", "Mtuple/s", 1e6, func() (float64, error) {
		var tuples float64
		for _, e := range g.Edges {
			l, r := lefts[e.Left], rights[e.Right]
			out := tuple.NewSubTable(tuple.ID{Table: -1}, outSchema, 0)
			if _, _, err := hashjoin.JoinPairSpill(l, r, keys, "probe", 1, 0, int64(l.Bytes()/4), 8, 3, part, hooks, out, nil); err != nil {
				return 0, err
			}
			tuples += float64(l.NumRows() + r.NumRows())
		}
		return tuples, nil
	})
}

// probeTransport times an echo handler over the real TCP transport:
// round trips of a 64-byte payload and throughput of a 1 MiB one.
func probeTransport(m map[string]metric) error {
	tr := transport.NewTCP()
	srv, err := tr.Serve("bench-echo", func(_ string, payload []byte) ([]byte, error) {
		return append([]byte(nil), payload...), nil
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := tr.Dial("bench-echo")
	if err != nil {
		return err
	}
	defer conn.Close()
	const smallCalls, bigCalls = 500, 20
	small, big := make([]byte, 64), make([]byte, 1<<20)
	var rtts []float64
	for i := 0; i < smallCalls; i++ {
		t0 := time.Now()
		if _, err := conn.Call("echo", small); err != nil {
			return err
		}
		rtts = append(rtts, us(time.Since(t0)))
	}
	m["transport.rtt_us"] = metric{median(rtts), "us"}
	return rate(m, "transport.mbps", "MB/s", mb, func() (float64, error) {
		for i := 0; i < bigCalls; i++ {
			if _, err := conn.Call("echo", big); err != nil {
				return 0, err
			}
		}
		return 2 * bigCalls * float64(len(big)), nil // request and response both cross the socket
	})
}
