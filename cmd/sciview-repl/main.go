// sciview-repl is an interactive SQL shell over a dataset directory: an
// emulated cluster is assembled around the dataset and statements are read
// from stdin, one per line.
//
//	$ sciview-repl -data /tmp/resv -compute 4
//	sciview> CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)
//	view V1 created
//	sciview> SELECT AVG(wp) FROM V1 GROUP BY z LIMIT 4
//	...
//
// Shell commands: \engine ij|gh|auto, \explain <view>, \tables, \quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sciview"
	"sciview/cmd/internal/clusterflags"
)

var (
	clusterSpec = clusterflags.Register(flag.CommandLine)
	maxRows     = flag.Int("max-rows", 20, "rows to print per result (0 = all)")
	memBudget   = flag.Int64("mem-budget", 0, "per-query memory budget in bytes; blocking operators spill to scratch when over (0 = unlimited)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sciview-repl: ")
	flag.Parse()
	data, spec := clusterSpec()
	if data == "" {
		flag.Usage()
		os.Exit(2)
	}
	ds, err := sciview.OpenDataset(data)
	if err != nil {
		log.Fatal(err)
	}
	spec.MemBudget = *memBudget
	sys, err := sciview.NewSystem(ds, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tables: %s — type SQL, or \\help\n", strings.Join(ds.Tables(), ", "))

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("sciview> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == `\quit`, line == `\q`, line == "exit":
			return
		case line == `\help`:
			fmt.Println(`SQL:  CREATE VIEW v AS SELECT * FROM a JOIN b ON (x, y) [WHERE ...]
      CREATE VIEW v2 AS SELECT * FROM v [WHERE ...]
      SELECT cols|*|AGG(col) FROM t [WHERE ...] [GROUP BY ...]
          [HAVING ...] [ORDER BY ...] [LIMIT n]
      EXPLAIN SELECT ...    print the streaming plan, don't execute
Shell: \engine ij|gh|auto   force or restore engine choice
       \explain <view>      cost-model comparison for a view
       \tables              list tables
       \quit`)
		case line == `\tables`:
			fmt.Println(strings.Join(ds.Tables(), ", "))
		case strings.HasPrefix(line, `\engine`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\engine`))
			if arg == "auto" {
				arg = ""
			}
			if err := sys.ForceEngine(arg); err != nil {
				fmt.Println(err)
			} else if arg == "" {
				fmt.Println("engine: cost-model choice")
			} else {
				fmt.Printf("engine forced: %s\n", arg)
			}
		case strings.HasPrefix(line, `\explain`):
			view := strings.TrimSpace(strings.TrimPrefix(line, `\explain`))
			info, err := sys.Explain(view)
			if err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Printf("engine %s: predicted IJ %v, GH %v\n", info.Engine, info.PredictIJ, info.PredictGH)
		default:
			res, err := sys.Exec(line)
			if err != nil {
				fmt.Println(err)
				continue
			}
			switch {
			case res.ViewCreated != "":
				fmt.Printf("view %s created\n", res.ViewCreated)
			case res.Explain != "":
				fmt.Print(res.Explain)
			case res.Rows != nil:
				res.Rows.WriteTo(os.Stdout, *maxRows)
				if res.Plan != nil {
					calib := "static"
					if res.Plan.Calibrated {
						calib = "live"
					}
					fmt.Printf("(%d rows; engine %s, %s constants, in %v)\n",
						res.Rows.NumRows(), res.Plan.Engine, calib, res.Plan.Measured)
				} else {
					fmt.Printf("(%d rows)\n", res.Rows.NumRows())
				}
			}
		}
	}
}
