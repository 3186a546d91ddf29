package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.csv from this run")

// goldenIDs are the exhibits whose CSV is a function of the seed alone
// once measured time is masked: two runs print the same bytes, so the
// committed file pins behaviour. Six of them (fig08–12, abl-sigma) also
// print measured plan-generation milliseconds, in the columns whose
// header ends in "ms"; those cells are checked only for shape (a
// non-negative number) and committed as "*". The one registered exhibit
// left out, fig14b, measures its throughput columns by wall clock.
var goldenIDs = []string{
	"fig01", "table2", "fig07a", "fig07b", "fig13", "fig14a", "fig15",
	"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
	"abl-adjust", "abl-clean", "abl-psi", "abl-discretize",
	"fig08", "fig09", "fig10", "fig11", "fig12", "abl-sigma",
}

// exhibitRuns holds one run per exhibit id so the shape tests and the
// goldens share it; the goldens' subtests run in parallel (fig18 alone
// is a third of the package's time), hence the Once.
var exhibitRuns = func() map[string]*exhibitRun {
	m := map[string]*exhibitRun{}
	for _, e := range Registry() {
		m[e.ID] = &exhibitRun{run: e.Run}
	}
	return m
}()

type exhibitRun struct {
	run  func() *Result
	once sync.Once
	r    *Result
}

// exhibit runs the registered exhibit id once per test binary.
func exhibit(t *testing.T, id string) *Result {
	t.Helper()
	e := exhibitRuns[id]
	if e == nil {
		t.Fatalf("exhibit %q is not registered", id)
	}
	e.once.Do(func() { e.r = e.run() })
	return e.r
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".csv")
}

// maskedCSV renders r's CSV with every cell of a column whose header
// ends in "ms" replaced by "*", after checking that the cell is a
// non-negative number. An exhibit without such columns renders as is.
func maskedCSV(t *testing.T, r *Result) string {
	t.Helper()
	m := &Result{Header: r.Header}
	for _, row := range r.Rows {
		row = append([]string(nil), row...)
		for j, h := range r.Header {
			if !strings.HasSuffix(h, "ms") {
				continue
			}
			if v, err := strconv.ParseFloat(row[j], 64); err != nil || !(v >= 0) {
				t.Errorf("%s: %q cell %q is not a non-negative number", r.ID, h, row[j])
			}
			row[j] = "*"
		}
		m.Rows = append(m.Rows, row)
	}
	return m.CSV()
}

// checkGolden compares got against the committed CSV, printing the
// first differing line on mismatch.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/experiments/ -run TestExhibitGoldens -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from %s at line %d:\n- %s\n+ %s", id, goldenPath(id), i+1, w, g)
		}
	}
}

// TestExhibitGoldens regenerates every seed-determined exhibit and
// compares its CSV byte for byte with the committed one: the
// bit-identity gate for any change that must not move an exhibit.
func TestExhibitGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got := maskedCSV(t, exhibit(t, id))
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath(id)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(id), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			checkGolden(t, id, got)
		})
	}
}
