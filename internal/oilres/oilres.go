// Package oilres generates synthetic oil-reservoir-study datasets with the
// characteristics of the paper's evaluation data: two virtual tables over
// the same 3-D grid — T1(x, y, z, oilp, ...) and T2(x, y, z, wp, ...) —
// regularly partitioned with (possibly different) block sizes, the blocks
// written as binary chunks distributed block-cyclically across storage
// nodes.
//
// Every grid cell appears exactly once in each table, so an equi-join on
// the coordinate attributes has record-level selectivity 1, the paper's
// standing assumption.
package oilres

import (
	"fmt"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/metadata"
	"sciview/internal/partition"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// Config describes one generated dataset.
type Config struct {
	// Grid is the full grid extent g = (g_x, g_y, g_z) in cells; the total
	// tuple count per table is T = g_x·g_y·g_z.
	Grid partition.Dims
	// LeftPart and RightPart are the partition sizes p and q.
	LeftPart  partition.Dims
	RightPart partition.Dims
	// LeftName/RightName name the virtual tables (default "T1"/"T2").
	LeftName  string
	RightName string
	// LeftMeasures/RightMeasures are the scalar attributes of each table
	// beyond the coordinates (defaults: ["oilp"] and ["wp"]). The Figure 7
	// experiment grows these lists to vary the record size.
	LeftMeasures  []string
	RightMeasures []string
	// StorageNodes is the number of storage nodes chunks are distributed
	// over (block-cyclic).
	StorageNodes int
	// Format is the chunk layout (default "rowmajor").
	Format string
	// Replicas is the total number of placements per chunk (primary
	// included), clamped to StorageNodes. Values < 2 mean no replication.
	Replicas int
	// Seed drives the synthetic measure values.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.LeftName == "" {
		c.LeftName = "T1"
	}
	if c.RightName == "" {
		c.RightName = "T2"
	}
	if c.LeftMeasures == nil {
		c.LeftMeasures = []string{"oilp"}
	}
	if c.RightMeasures == nil {
		c.RightMeasures = []string{"wp"}
	}
	if c.Format == "" {
		c.Format = "rowmajor"
	}
	if c.StorageNodes == 0 {
		c.StorageNodes = 1
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := (partition.Spec{Grid: c.Grid, Part: c.LeftPart}).Validate(); err != nil {
		return fmt.Errorf("oilres: left: %w", err)
	}
	if err := (partition.Spec{Grid: c.Grid, Part: c.RightPart}).Validate(); err != nil {
		return fmt.Errorf("oilres: right: %w", err)
	}
	if c.StorageNodes < 1 {
		return fmt.Errorf("oilres: StorageNodes = %d", c.StorageNodes)
	}
	if _, err := chunk.Lookup(c.Format); err != nil {
		return err
	}
	return nil
}

// Dataset is a generated dataset: a populated catalog plus one object
// store per storage node holding the chunk bytes.
type Dataset struct {
	Config  Config
	Catalog *metadata.Catalog
	Stores  []simio.Store
	Left    *metadata.TableDef
	Right   *metadata.TableDef
}

// Schema returns the schema of a table with the given measure attributes.
func Schema(measures []string) tuple.Schema {
	attrs := []tuple.Attr{
		{Name: "x", Kind: tuple.Coord},
		{Name: "y", Kind: tuple.Coord},
		{Name: "z", Kind: tuple.Coord},
	}
	for _, m := range measures {
		attrs = append(attrs, tuple.Attr{Name: m, Kind: tuple.Measure})
	}
	return tuple.NewSchema(attrs...)
}

// Generate builds the dataset into fresh in-memory stores (or into the
// given stores, one per storage node — e.g. file stores for persistence).
// Generation is administrative and unthrottled: the paper's measured costs
// begin at query time.
func Generate(cfg Config, stores ...simio.Store) (*Dataset, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(stores) == 0 {
		stores = make([]simio.Store, cfg.StorageNodes)
		for i := range stores {
			stores[i] = simio.NewMemStore()
		}
	}
	if len(stores) != cfg.StorageNodes {
		return nil, fmt.Errorf("oilres: %d stores for %d nodes", len(stores), cfg.StorageNodes)
	}
	ds := &Dataset{Config: cfg, Catalog: metadata.NewCatalog(), Stores: stores}

	var err error
	ds.Left, err = genTable(ds, cfg.LeftName, cfg.LeftMeasures, cfg.LeftPart, 1)
	if err != nil {
		return nil, err
	}
	ds.Right, err = genTable(ds, cfg.RightName, cfg.RightMeasures, cfg.RightPart, 2)
	if err != nil {
		return nil, err
	}
	if err := Replicate(ds.Catalog, ds.Stores, cfg.Replicas); err != nil {
		return nil, err
	}
	return ds, nil
}

func genTable(ds *Dataset, name string, measures []string, part partition.Dims, salt int64) (*metadata.TableDef, error) {
	cfg := ds.Config
	schema := Schema(measures)
	def, err := ds.Catalog.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	ex, err := chunk.Lookup(cfg.Format)
	if err != nil {
		return nil, err
	}
	spec := partition.Spec{Grid: cfg.Grid, Part: part}
	offsets := make([]int64, cfg.StorageNodes)
	object := func(node int) string { return fmt.Sprintf("%s/node%d.dat", name, node) }

	n := int(spec.NumChunks())
	vals := make([]float32, schema.NumAttrs())
	for id := 0; id < n; id++ {
		bx, by, bz := spec.ChunkCoords(id)
		lo, hi := spec.CellRange(bx, by, bz)
		st := tuple.NewSubTable(tuple.ID{Table: def.ID, Chunk: int32(id)}, schema, int(part.Cells()))
		for z := lo.Z; z < hi.Z; z++ {
			for y := lo.Y; y < hi.Y; y++ {
				for x := lo.X; x < hi.X; x++ {
					vals[0], vals[1], vals[2] = float32(x), float32(y), float32(z)
					cell := (int64(z)*int64(cfg.Grid.Y)+int64(y))*int64(cfg.Grid.X) + int64(x)
					for m := range measures {
						vals[3+m] = measureValue(cfg.Seed, salt, int64(m), cell)
					}
					st.AppendRow(vals...)
				}
			}
		}
		data, err := ex.Encode(st)
		if err != nil {
			return nil, err
		}
		node := partition.BlockCyclicNode(id, cfg.StorageNodes)
		if err := ds.Stores[node].Append(object(node), data); err != nil {
			return nil, err
		}
		b := st.Bounds()
		desc := &chunk.Desc{
			Object: object(node),
			Offset: offsets[node],
			Size:   int64(len(data)),
			Node:   node,
			Format: cfg.Format,
			Attrs:  schema.Attrs,
			Rows:   st.NumRows(),
			Bounds: bbox.New(b.Lo, b.Hi),
		}
		offsets[node] += int64(len(data))
		if _, err := ds.Catalog.AddChunk(def.ID, desc); err != nil {
			return nil, err
		}
	}
	return def, nil
}

// measureValue derives a deterministic pseudo-random measure in [0, 1)
// from (seed, table salt, attribute, cell) via a splitmix64 mix.
func measureValue(seed, salt, attr, cell int64) float32 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(salt)<<32 ^ uint64(attr)<<16 ^ uint64(cell)
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float32(x>>40) / float32(1<<24)
}

// Tuples returns T, the per-table tuple count.
func (ds *Dataset) Tuples() int64 { return ds.Config.Grid.Cells() }

// JoinAttrs returns the coordinate attributes both tables share — the
// default equi-join keys.
func (ds *Dataset) JoinAttrs() []string { return []string{"x", "y", "z"} }
