package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the comparison needs: each
// metric's direction and, for end-to-end metrics, its bound.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest reads BENCHMARK.json from the repository root, whether the
// command runs there or inside bench/.
func loadManifest() (*manifest, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &mf, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict compares a change's runs of one metric against the parent's.
// With a bound (end-to-end metrics): unresolved when the parent's own
// inter-quartile spread exceeds the bound, worse when the change's median
// is worse than the parent's by more than the bound, better when it is
// better by more than the parent's spread. Without one (per-layer
// metrics) the parent's spread is the threshold in both directions.
func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	spread := q3 - q1
	scale := math.Abs(pm)
	gain := cm - pm // positive = better
	if !higherBetter {
		gain = -gain
	}
	if bound > 0 {
		if spread > bound*scale {
			return "unresolved"
		}
		if -gain > bound*scale {
			return "worse"
		}
	} else if -gain > spread {
		return "worse"
	}
	if gain > spread {
		return "better"
	}
	return "same"
}

// compareFiles prints, per (workload, metric), the medians and quartiles
// of two -out files and the verdict for the second against the first.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	mf, err := loadManifest()
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	collect := func(recs []record) (map[key][]float64, map[string]int) {
		vals, failed := map[key][]float64{}, map[string]int{}
		for _, r := range recs {
			failed[r.Workload] += r.Result.Failed
			for name, mv := range r.Result.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], mv.Value)
			}
		}
		return vals, failed
	}
	pv, pFailed := collect(parent)
	cv, cFailed := collect(change)

	fmt.Fprintf(w, "%-11s %-32s %-8s %12s %25s %12s %25s  %s\n",
		"workload", "metric", "unit", "parent med", "parent q1..q3", "change med", "change q1..q3", "verdict")
	row := func(wl string, mm manifestMetric, bound float64) {
		p, c := pv[key{wl, mm.Name}], cv[key{wl, mm.Name}]
		if len(p) == 0 || len(c) == 0 {
			return
		}
		pq1, pq3 := quartiles(p)
		cq1, cq3 := quartiles(c)
		fmt.Fprintf(w, "%-11s %-32s %-8s %12.5g %12.5g..%-11.5g %12.5g %12.5g..%-11.5g  %s\n",
			wl, mm.Name, mm.Unit, median(p), pq1, pq3, median(c), cq1, cq3,
			verdict(p, c, mm.Better == "higher", bound))
	}
	for i := range workloads {
		wl := workloads[i].name
		for _, mm := range mf.EndToEnd {
			row(wl, mm, mm.Bound)
		}
		for _, mm := range mf.PerLayer {
			row(wl, mm, 0)
		}
		if pFailed[wl] != 0 || cFailed[wl] != 0 {
			fmt.Fprintf(w, "%-11s failed operations: parent %d, change %d\n", wl, pFailed[wl], cFailed[wl])
		}
	}
	return nil
}
