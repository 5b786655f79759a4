package oilres

import (
	"fmt"

	"sciview/internal/bbox"
	"sciview/internal/chunk"
	"sciview/internal/partition"
	"sciview/internal/simio"
	"sciview/internal/tuple"
)

// Time-step generation: the simulation-output arrival pattern. A reservoir
// study writes one slab of cells per simulated time step; the dataset is
// queryable from the first step on and grows by appended chunks. Here the
// grid's Z axis is the time-like axis: the base dataset covers the first
// Z − steps·stepZ cells and each step contributes the chunks of one more
// slab, with cell values and chunk placement identical to what a one-shot
// generation of the full grid would have produced (appending every step and
// generating the whole grid are byte-equivalent datasets).

// StepChunk is one encoded chunk payload of a time-step append batch,
// ready for the ingest path: the bytes, their layout, row count, bounds,
// and the storage node the placement policy assigns.
type StepChunk struct {
	Table  string
	Format string
	Data   []byte
	Rows   int
	Bounds bbox.Box
	Node   int
}

// StepZ returns the Z extent of one time-step slab: the smallest cell
// count that is a whole number of block layers in both tables' partitions.
func StepZ(cfg Config) int {
	return lcm(cfg.LeftPart.Z, cfg.RightPart.Z)
}

func lcm(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// GenerateSteps builds the base dataset covering all but the last `steps`
// time-step slabs of cfg.Grid, plus one chunk batch per withheld slab.
// Appending the batches in order reproduces, chunk for chunk, the dataset
// Generate would build for the full grid: same chunk ids (when batches are
// registered in order), same cell values, and — under the default
// block-cyclic placement — the same node placement. The
// returned Dataset's Config carries the base grid; cfg.Replicas applies to
// the base only — the ingest path replicates appended chunks itself.
func GenerateSteps(cfg Config, steps int, stores ...simio.Store) (*Dataset, [][]StepChunk, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	stepZ := StepZ(cfg)
	if steps < 0 {
		return nil, nil, fmt.Errorf("oilres: negative steps %d", steps)
	}
	if withheld := steps * stepZ; withheld >= cfg.Grid.Z {
		return nil, nil, fmt.Errorf("oilres: %d steps of %d cells leave no base slab in grid Z %d",
			steps, stepZ, cfg.Grid.Z)
	}

	baseCfg := cfg
	baseCfg.Grid.Z = cfg.Grid.Z - steps*stepZ
	ds, err := Generate(baseCfg, stores...)
	if err != nil {
		return nil, nil, err
	}

	batches := make([][]StepChunk, steps)
	for s := 0; s < steps; s++ {
		zLo := baseCfg.Grid.Z + s*stepZ
		var batch []StepChunk
		for _, t := range []struct {
			name     string
			measures []string
			part     partition.Dims
			salt     int64
		}{
			{cfg.LeftName, cfg.LeftMeasures, cfg.LeftPart, 1},
			{cfg.RightName, cfg.RightMeasures, cfg.RightPart, 2},
		} {
			chunks, err := genSlabChunks(cfg, t.name, t.measures, t.part, t.salt, zLo, zLo+stepZ)
			if err != nil {
				return nil, nil, err
			}
			batch = append(batch, chunks...)
		}
		batches[s] = batch
	}
	return ds, batches, nil
}

// genSlabChunks encodes the chunks of one table covering grid cells
// [zLo, zHi) along Z, in global chunk-id order, with the node each chunk
// would have had in a full-grid generation.
func genSlabChunks(cfg Config, name string, measures []string, part partition.Dims, salt int64, zLo, zHi int) ([]StepChunk, error) {
	schema := Schema(measures)
	ex, err := chunk.Lookup(cfg.Format)
	if err != nil {
		return nil, err
	}
	spec := partition.Spec{Grid: cfg.Grid, Part: part} // full grid: global ids
	blocks := spec.Blocks()

	var out []StepChunk
	vals := make([]float32, schema.NumAttrs())
	for bz := zLo / part.Z; bz < zHi/part.Z; bz++ {
		for by := 0; by < blocks.Y; by++ {
			for bx := 0; bx < blocks.X; bx++ {
				id := spec.ChunkIndex(bx, by, bz)
				lo, hi := spec.CellRange(bx, by, bz)
				st := tuple.NewSubTable(tuple.ID{Chunk: int32(id)}, schema, int(part.Cells()))
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
				b := st.Bounds()
				out = append(out, StepChunk{
					Table:  name,
					Format: cfg.Format,
					Data:   data,
					Rows:   st.NumRows(),
					Bounds: bbox.New(b.Lo, b.Hi),
					Node:   partition.BlockCyclicNode(id, cfg.StorageNodes),
				})
			}
		}
	}
	return out, nil
}
