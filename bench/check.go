package main

import (
	"context"
	"fmt"
	"math"

	"sciview"
	"sciview/internal/metadata"
	"sciview/internal/planner"
	"sciview/internal/query"
	"sciview/internal/tuple"
)

var bg = context.Background()

// statement is one corpus entry with what the checker and the probes
// need to know about it.
type statement struct {
	sql string
	sel *query.Select
	// rng is the WHERE clause as a catalog range (the BDS filter).
	rng metadata.Range
	// round marks the output columns holding AVG/SUM results: they are
	// compared at 4 significant digits, because the fold order of float
	// partials differs with the number of join parts.
	round []bool
	// historic reports that the statement reads only Z slabs below the
	// base grid, so appends never change its result.
	historic bool
}

func parseStatement(sql string) (*statement, error) {
	parsed, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := parsed.(*query.Select)
	if !ok {
		return nil, fmt.Errorf("corpus statement %q is not a SELECT", sql)
	}
	st := &statement{sql: sql, sel: sel, rng: query.ToRange(sel.Where)}
	for _, p := range sel.Where {
		if p.Attr == "z" && p.Hi < float64(grid.Z) {
			st.historic = true
		}
	}
	var aggs []query.SelectItem
	for _, it := range sel.Items {
		if it.Agg != query.AggNone {
			aggs = append(aggs, it)
		}
	}
	if len(aggs) > 0 {
		// Aggregation output: the GROUP BY attributes, then one column
		// per aggregate item.
		st.round = make([]bool, len(sel.GroupBy)+len(aggs))
		for i, it := range aggs {
			st.round[len(sel.GroupBy)+i] = it.Agg == query.AggAvg || it.Agg == query.AggSum
		}
	}
	return st, nil
}

// fingerprint identifies a result: its row count and a checksum over the
// Float32bits of every value — order-sensitive when the statement has an
// ORDER BY (every corpus ORDER BY is total up to identical rows),
// order-insensitive otherwise.
type fingerprint struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func round4(v float32) float32 {
	f := float64(v)
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return v
	}
	scale := math.Pow(10, 3-math.Floor(math.Log10(math.Abs(f))))
	return float32(math.Round(f*scale) / scale)
}

func (st *statement) fingerprint(rows *tuple.SubTable) fingerprint {
	if rows == nil {
		return fingerprint{rows: -1}
	}
	n, na := rows.NumRows(), rows.Schema.NumAttrs()
	cols := make([][]float32, na)
	for c := range cols {
		cols[c] = rows.Col(c)
	}
	ordered := len(st.sel.OrderBy) > 0
	var sum uint64
	for r := 0; r < n; r++ {
		h := uint64(fnvOffset)
		for c, col := range cols {
			v := col[r]
			if c < len(st.round) && st.round[c] {
				v = round4(v)
			}
			bits := math.Float32bits(v)
			for shift := 0; shift < 32; shift += 8 {
				h = (h ^ uint64(byte(bits>>shift))) * fnvPrime
			}
		}
		if ordered {
			sum = (sum ^ h) * fnvPrime
		} else {
			sum += h
		}
	}
	return fingerprint{rows: n, sum: sum}
}

// referenceFingerprints computes what every statement must return, on an
// independent system: a second copy of the dataset, one compute node, the
// row-major wire, no budget, and the materialized executor (the repo's
// golden oracle path). On an ingest workload it replays the appends and
// fingerprints every dataset version.
func referenceFingerprints(w *workload, seed int64, stmts []*statement) ([][]fingerprint, error) {
	ds, batches, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	sys, err := sciview.NewSystem(ds, sciview.ClusterSpec{ComputeNodes: 1})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	ex := planner.NewExecutor(sys.Cluster())
	ex.Materialize = true
	ex.Planner.AlphaBuild, ex.Planner.AlphaLookup = alphaBuild, alphaLookup
	if _, err := ex.Exec(createView); err != nil {
		return nil, err
	}
	at := func(prev []fingerprint) ([]fingerprint, error) {
		fps := make([]fingerprint, len(stmts))
		for i, st := range stmts {
			if prev != nil && st.historic {
				fps[i] = prev[i]
				continue
			}
			out, err := ex.Exec(st.sql)
			if err != nil {
				return nil, fmt.Errorf("reference %q: %w", st.sql, err)
			}
			fps[i] = st.fingerprint(out.Rows)
		}
		return fps, nil
	}
	base, err := at(nil)
	if err != nil {
		return nil, err
	}
	ref := [][]fingerprint{base}
	if len(batches) == 0 {
		return ref, nil
	}
	in, err := sys.Ingestor(1)
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if _, err := in.Append(b); err != nil {
			return nil, fmt.Errorf("reference append: %w", err)
		}
		fps, err := at(ref[len(ref)-1])
		if err != nil {
			return nil, err
		}
		ref = append(ref, fps)
	}
	return ref, nil
}

// correct reports whether fp is the reference result of statement i at
// some dataset version committed between submit (vBefore) and return
// (vAfter).
func (s *stack) correct(i int, fp fingerprint, vBefore, vAfter int64) bool {
	for v := vBefore; v <= vAfter; v++ {
		off := int(v - baseVersion)
		if off >= len(s.ref) {
			break
		}
		if s.ref[off][i] == fp {
			return true
		}
	}
	return false
}
