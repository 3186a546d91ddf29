// Command benchrunner regenerates the paper's tables and figures as
// text series.
//
// Usage:
//
//	benchrunner                # run everything, print each exhibit
//	benchrunner -exp fig08     # one exhibit
//	benchrunner -exp fig07a,fig12
//	benchrunner -list          # list exhibit ids
//	benchrunner -csv DIR       # also write each exhibit as DIR/<id>.csv
//
// Output rows correspond to the x-axis points of the paper's plots;
// columns to its series; README.md documents how each exhibit maps to
// the published figures. Performance is measured elsewhere: the
// repository benchmark is `bash bench/run.sh`, the control round's
// micro-benchmarks are `make bench-control`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "comma-separated exhibit ids, or 'all'")
		list   = flag.Bool("list", false, "list exhibit ids and exit")
		csvDir = flag.String("csv", "", "also write each exhibit as CSV into this directory")
	)
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
	}

	reg := experiments.Registry()
	if *list {
		for _, e := range reg {
			fmt.Println(e.ID)
		}
		return
	}

	want := map[string]bool{}
	all := *exp == "all" || *exp == ""
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}

	ran := 0
	for _, e := range reg {
		if !all && !want[e.ID] {
			continue
		}
		start := time.Now()
		res := e.Run()
		fmt.Println(res.Render())
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner:", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no exhibit matched %q; use -list\n", *exp)
		os.Exit(1)
	}
}
