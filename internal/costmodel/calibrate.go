package costmodel

import (
	"time"

	"sciview/internal/hashjoin"
	"sciview/internal/tuple"
)

// Calibrate measures the host's real α_build and α_lookup by timing
// in-memory hash-join build and probe over n synthetic tuples (several
// rounds, keeping the fastest round to suppress scheduling noise). These
// are the *native* per-operation costs; when a cluster models an
// era-appropriate CPU via Config.CPUSecPerOp, the planner adds that charge
// on top of these constants.
func Calibrate(n int) (alphaBuild, alphaLookup float64) {
	if n < 1024 {
		n = 1024
	}
	schema := tuple.NewSchema(
		tuple.Attr{Name: "x", Kind: tuple.Coord},
		tuple.Attr{Name: "y", Kind: tuple.Coord},
		tuple.Attr{Name: "v", Kind: tuple.Measure},
	)
	left := tuple.NewSubTable(tuple.ID{}, schema, n)
	right := tuple.NewSubTable(tuple.ID{Table: 1}, schema, n)
	for i := 0; i < n; i++ {
		x, y := float32(i&1023), float32(i>>10)
		left.AppendRow(x, y, float32(i))
		right.AppendRow(x, y, float32(i)+0.5)
	}
	keys := []string{"x", "y"}
	outSchema := left.Schema.JoinResult(right.Schema, keys, "r_")

	bestBuild := time.Duration(1<<62 - 1)
	bestProbe := time.Duration(1<<62 - 1)
	const rounds = 3
	for round := 0; round < rounds; round++ {
		start := time.Now()
		ht, err := hashjoin.BuildParallel(left, keys, 1, 1, nil)
		if err != nil {
			return 0, 0
		}
		build := time.Since(start)
		out := tuple.NewSubTable(tuple.ID{}, outSchema, n)
		start = time.Now()
		if _, err := ht.ProbeParallel(right, keys, 1, 1, out, nil); err != nil {
			return 0, 0
		}
		probe := time.Since(start)
		if build < bestBuild {
			bestBuild = build
		}
		if probe < bestProbe {
			bestProbe = probe
		}
	}
	return bestBuild.Seconds() / float64(n), bestProbe.Seconds() / float64(n)
}
