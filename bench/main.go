// Command bench is the repository's one performance benchmark: it stands
// up the real stack (generated dataset → sciview.NewSystem → service.New
// → Service.SubmitSQL) per workload, drives it closed-loop, checks every
// result against an independent reference, and prints every metric by
// name and unit as one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a result with what produced it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Result     result  `json:"result"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
	results  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: warm_join, cold_fetch, gh_spill, ingest_mix or all")
	flag.Int64Var(&o.seed, "seed", 2006, "seed for dataset values and client permutations")
	flag.Float64Var(&o.seconds, "seconds", 28, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: untraced window, end-to-end metrics; 1: traced pass and probes, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test mode: one set-up, no shape assertions, no sample-count refusals")
	flag.StringVar(&o.out, "out", "", "append each result, with its workload and seed, to this JSON-lines file")
	flag.StringVar(&o.results, "results", "", "directory for span files and goroutine dumps (default bench/results)")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: bench -compare a.jsonl b.jsonl")
	flag.Parse()
	o.trace = trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two -out files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if o.results == "" {
		o.results = "results"
		if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
			o.results = "bench/results"
		}
	}
	var names []string
	if o.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{o.workload}
	}
	allCorrect := true
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			fatal(err)
		}
		res, err := run(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		if o.out != "" {
			if err := appendRecord(o, name, res); err != nil {
				fatal(err)
			}
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func appendRecord(o options, name string, res *result) error {
	f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := record{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Result: *res}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
