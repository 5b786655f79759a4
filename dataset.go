package sciview

import (
	"fmt"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/metadata"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// Dims is a 3-D extent in grid cells.
type Dims struct {
	X, Y, Z int
}

func (d Dims) internal() partition.Dims { return partition.D(d.X, d.Y, d.Z) }

// Attr declares one attribute of a virtual table. Coordinate attributes
// define the dataset's spatial embedding and are the usual join and
// partitioning keys.
type Attr struct {
	Name  string
	Coord bool
}

// Schema is an ordered attribute list. All attributes are 4-byte values.
type Schema []Attr

func (s Schema) internal() tuple.Schema {
	attrs := make([]tuple.Attr, len(s))
	for i, a := range s {
		kind := tuple.Measure
		if a.Coord {
			kind = tuple.Coord
		}
		attrs[i] = tuple.Attr{Name: a.Name, Kind: kind}
	}
	return tuple.NewSchema(attrs...)
}

func publicSchema(s tuple.Schema) Schema {
	out := make(Schema, s.NumAttrs())
	for i, a := range s.Attrs {
		out[i] = Attr{Name: a.Name, Coord: a.Kind == tuple.Coord}
	}
	return out
}

// Dataset is a registered collection of virtual tables: a chunk catalog
// plus one object store per storage node holding the flat-file bytes.
type Dataset struct {
	catalog *metadata.Catalog
	stores  []simio.Store
}

// StorageNodes returns the number of storage nodes the dataset spans.
func (d *Dataset) StorageNodes() int { return len(d.stores) }

// Replicate raises every chunk to `copies` total placements (primary
// included), copying chunk bytes to the following nodes round-robin and
// registering the placements with the MetaData Service. copies is clamped
// to the node count; values < 2 are a no-op. With R copies, fetches
// survive R−1 storage-node failures.
func (d *Dataset) Replicate(copies int) error {
	return oilres.Replicate(d.catalog, d.stores, copies)
}

// Tables returns the names of the dataset's virtual tables.
func (d *Dataset) Tables() []string {
	defs := d.catalog.Tables()
	names := make([]string, 0, len(defs))
	for _, def := range defs {
		names = append(names, def.Name)
	}
	return names
}

// TableSchema returns a table's schema.
func (d *Dataset) TableSchema(name string) (Schema, error) {
	def, err := d.catalog.Table(name)
	if err != nil {
		return nil, err
	}
	return publicSchema(def.Schema), nil
}

// OilReservoirSpec configures the synthetic oil-reservoir-study dataset
// generator: two tables (default T1(x,y,z,oilp) and T2(x,y,z,wp)) covering
// the same grid with independent regular partitionings, distributed
// block-cyclically across storage nodes.
type OilReservoirSpec struct {
	Grid          Dims
	LeftPart      Dims
	RightPart     Dims
	LeftName      string   // default "T1"
	RightName     string   // default "T2"
	LeftMeasures  []string // default ["oilp"]
	RightMeasures []string // default ["wp"]
	StorageNodes  int      // default 1
	Format        string   // chunk layout: "rowmajor" (default), "colmajor", "csv", "rle"
	Seed          int64
	// Replicas is the total number of placements per chunk (primary
	// included), clamped to StorageNodes; < 2 means no replication. With
	// R ≥ 2 the cluster's fetch path survives R−1 storage-node failures.
	Replicas int
}

func (spec OilReservoirSpec) internal() oilres.Config {
	return oilres.Config{
		Grid:          spec.Grid.internal(),
		LeftPart:      spec.LeftPart.internal(),
		RightPart:     spec.RightPart.internal(),
		LeftName:      spec.LeftName,
		RightName:     spec.RightName,
		LeftMeasures:  spec.LeftMeasures,
		RightMeasures: spec.RightMeasures,
		StorageNodes:  spec.StorageNodes,
		Format:        spec.Format,
		Seed:          spec.Seed,
		Replicas:      spec.Replicas,
	}
}

// GenerateOilReservoir builds the synthetic dataset in memory.
func GenerateOilReservoir(spec OilReservoirSpec) (*Dataset, error) {
	ds, err := oilres.Generate(spec.internal())
	if err != nil {
		return nil, err
	}
	return &Dataset{catalog: ds.Catalog, stores: ds.Stores}, nil
}

// DatasetBuilder assembles a custom dataset: declare tables, then append
// chunks of records. Chunks are laid out in a registered flat-file format,
// written to the owning node's store, and registered with the MetaData
// Service (location, size, schema, bounding box).
type DatasetBuilder struct {
	catalog *metadata.Catalog
	stores  []simio.Store
	offsets map[string]int64
	err     error
}

// NewDatasetBuilder starts a dataset spanning the given number of storage
// nodes.
func NewDatasetBuilder(storageNodes int) *DatasetBuilder {
	if storageNodes < 1 {
		storageNodes = 1
	}
	stores := make([]simio.Store, storageNodes)
	for i := range stores {
		stores[i] = simio.NewMemStore()
	}
	return &DatasetBuilder{
		catalog: metadata.NewCatalog(),
		stores:  stores,
		offsets: make(map[string]int64),
	}
}

// CreateTable declares a virtual table. The schema needs at least one
// coordinate attribute.
func (b *DatasetBuilder) CreateTable(name string, schema Schema) *DatasetBuilder {
	if b.err != nil {
		return b
	}
	_, b.err = b.catalog.CreateTable(name, schema.internal())
	return b
}

// AppendChunk adds one chunk of records to a table on the given storage
// node. Each row must have one value per schema attribute. format names a
// registered chunk layout ("rowmajor", "colmajor", "csv"; "" = rowmajor).
func (b *DatasetBuilder) AppendChunk(table string, node int, format string, rows [][]float32) *DatasetBuilder {
	if b.err != nil {
		return b
	}
	if node < 0 || node >= len(b.stores) {
		b.err = fmt.Errorf("sciview: node %d out of range (0..%d)", node, len(b.stores)-1)
		return b
	}
	if format == "" {
		format = "rowmajor"
	}
	def, err := b.catalog.Table(table)
	if err != nil {
		b.err = err
		return b
	}
	ex, err := chunk.Lookup(format)
	if err != nil {
		b.err = err
		return b
	}
	st := tuple.NewSubTable(tuple.ID{Table: def.ID}, def.Schema, len(rows))
	for i, row := range rows {
		if len(row) != def.Schema.NumAttrs() {
			b.err = fmt.Errorf("sciview: row %d has %d values for %d attributes", i, len(row), def.Schema.NumAttrs())
			return b
		}
		st.AppendRow(row...)
	}
	data, err := ex.Encode(st)
	if err != nil {
		b.err = err
		return b
	}
	object := fmt.Sprintf("%s/node%d.dat", table, node)
	key := fmt.Sprintf("%d/%s", node, object)
	if err := b.stores[node].Append(object, data); err != nil {
		b.err = err
		return b
	}
	bounds := st.Bounds()
	desc := &chunk.Desc{
		Object: object,
		Offset: b.offsets[key],
		Size:   int64(len(data)),
		Node:   node,
		Format: format,
		Attrs:  def.Schema.Attrs,
		Rows:   st.NumRows(),
		Bounds: bbox.New(bounds.Lo, bounds.Hi),
	}
	b.offsets[key] += int64(len(data))
	if _, err := b.catalog.AddChunk(def.ID, desc); err != nil {
		b.err = err
	}
	return b
}

// Build finalizes the dataset.
func (b *DatasetBuilder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &Dataset{catalog: b.catalog, stores: b.stores}, nil
}
