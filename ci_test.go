package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunListsNameRealTests reads the CI workflow and fails when a
// `go test -run` or `-fuzz` argument names a test its packages do not
// declare. go test passes with "no tests to run" when a pattern matches
// nothing, so a renamed or deleted stress test would otherwise drop out
// of CI's race step unnoticed. Each plain name in an 'A|B|…' list must
// be a declared function of the step's packages' _test.go files; a name
// standing alone (`-run Fuzz`) must match one the way go test matches.
func TestCIRunListsNameRealTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	src, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|fuzz)\s+('[^']*'|\S+)`)
	plain := regexp.MustCompile(`^\w+$`)
	checked := 0
	for i, line := range strings.Split(string(src), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		var dirs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				dirs = append(dirs, f)
			}
		}
		var declared []string
		for _, d := range dirs {
			declared = append(declared, testFuncs(t, d)...)
		}
		for _, m := range flag.FindAllStringSubmatch(line, -1) {
			names := strings.Split(strings.Trim(m[2], "'"), "|")
			for _, name := range names {
				if !plain.MatchString(name) {
					continue
				}
				checked++
				if !namesTest(name, declared, len(names) == 1) {
					t.Errorf("%s:%d: -%s names %s, which %v does not declare", workflow, i+1, m[1], name, dirs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no go test -run or -fuzz name found; the check is vacuous", workflow)
	}
}

// namesTest reports whether name is one of declared or, when alone is
// set, matches one as an unanchored regular expression.
func namesTest(name string, declared []string, alone bool) bool {
	for _, d := range declared {
		if d == name || alone && strings.Contains(d, name) {
			return true
		}
	}
	return false
}

// testFuncs returns the top-level functions the _test.go files of dir
// declare. A trailing /... takes dir's whole tree.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	root, tree := strings.CutSuffix(strings.TrimSuffix(dir, "/"), "/...")
	var out []string
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && !tree {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				out = append(out, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
