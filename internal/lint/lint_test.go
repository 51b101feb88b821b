package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture harness: each testdata package is type-checked under a
// production import path and run through one analyzer (or the whole
// suite). Expectations live in the fixtures as trailing
//
//	// want "regexp"
//
// comments: every such line must produce a diagnostic matching the
// regexp against its "rule: message" rendering, and every diagnostic
// must be wanted by its line. This is the same golden-comment
// convention the upstream analysis ecosystem uses, minus the
// dependency.

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// fixtureLoader builds one Loader for the whole test binary: priming
// the export-data index shells out to go list once, which dominates the
// suite's runtime.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
}

// fixtureWants scans a fixture directory for // want comments.
func fixtureWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixtures: %v", err)
	}
	var wants []expectation
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, m[1], err)
				}
				wants = append(wants, expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkFixture loads testdata/<name> as asPath, runs the analyzers, and
// reconciles findings against the fixture's want comments.
func checkFixture(t *testing.T, name, asPath string, analyzers []*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	pkg, err := fixtureLoader(t).LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := Run([]*Package{pkg}, analyzers)
	wants := fixtureWants(t, dir)

	used := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if used[i] || filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Rule + ": " + d.Message) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: wanted a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !used[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestAPIEnvelope(t *testing.T) {
	checkFixture(t, "apienvelope", "repro/internal/fixtureapi", []*Analyzer{Analyzers.APIEnvelope})
}

func TestCtxFlow(t *testing.T) {
	checkFixture(t, "ctxflow", "repro/internal/fixturectx", []*Analyzer{Analyzers.CtxFlow})
}

func TestLockIO(t *testing.T) {
	// Checked under a lockio-scoped import path: the rule only runs in
	// the write-path packages.
	checkFixture(t, "lockio", "repro/internal/stream", []*Analyzer{Analyzers.LockIO})
}

func TestObsNames(t *testing.T) {
	checkFixture(t, "obsnames", "repro/internal/fixtureobs", []*Analyzer{Analyzers.ObsNames})
}

func TestHotAlloc(t *testing.T) {
	checkFixture(t, "hotalloc", "repro/internal/fixturehot", []*Analyzer{Analyzers.HotAlloc})
}

func TestCloseCheck(t *testing.T) {
	checkFixture(t, "closecheck", "repro/internal/fixtureclose", []*Analyzer{Analyzers.CloseCheck})
}

// TestSuppression runs the full suite so every rule name in the
// fixture's directives is known; it asserts the directive semantics —
// next-line scope, trailing scope, wrong rule silences nothing, and
// unknown rule / missing reason are themselves diagnostics.
func TestSuppression(t *testing.T) {
	checkFixture(t, "suppress", "repro/internal/fixturesuppress", All())
}

// TestLockIOOutOfScope pins the scoping: the same designated-mutex
// fixture produces nothing outside the write-path package set.
func TestLockIOOutOfScope(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "lockio"), "repro/internal/elsewhere")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if diags := Run([]*Package{pkg}, []*Analyzer{Analyzers.LockIO}); len(diags) != 0 {
		t.Fatalf("lockio fired outside its package scope: %v", diags)
	}
}

// TestRepoClean is the dogfood gate: the suite must hold on the
// codebase that defines it. It is the same check CI's lint job runs
// through cmd/districtlint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint in -short mode")
	}
	pkgs, err := fixtureLoader(t).Load([]string{"./..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("finding: %s", d)
	}
}
