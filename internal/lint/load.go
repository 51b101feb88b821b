package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader resolves and type-checks the module's packages with nothing
// beyond the standard library and the go command that is already driving
// the build: one `go list -export -deps -json` walk yields every
// dependency's compiled export data, which feeds the stdlib gc importer,
// and the target packages themselves are re-parsed from source so the
// analyzers get full ASTs with comments plus a complete types.Info.
// Keeping go.mod dependency-free was a design constraint of the suite —
// the analysis engine must never be the reason the module grows a
// third-party requirement.

// Package is one loaded, type-checked package: the unit analyzers run on.
type Package struct {
	// Path is the package's import path. Fixture loads may assign a
	// synthetic path so path-scoped analyzers see the package as the
	// production package it stands in for.
	Path string
	// Fset positions every file and diagnostic of this load.
	Fset *token.FileSet
	// Files are the parsed source files, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries use/def/selection/type resolution for the files.
	Info *types.Info
	// Sources holds each file's raw bytes by filename (the suppression
	// scanner needs to see whether a directive trails code on its line).
	Sources map[string][]byte
}

// listEntry is the subset of `go list -json` output the loader reads.
type listEntry struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// exportIndex maps import paths to compiled export data files, shared by
// every type-check of one Load (the gc importer caches by path).
type exportIndex map[string]string

func (x exportIndex) lookup(path string) (io.ReadCloser, error) {
	file, ok := x[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q (not in the module's dependency closure)", path)
	}
	return os.Open(file)
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON stream.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go list: %s", msg)
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Loader loads packages of one module for analysis.
type Loader struct {
	dir     string // module root (or any directory inside it)
	fset    *token.FileSet
	exports exportIndex
	imp     types.Importer
}

// NewLoader prepares a loader rooted at dir: one `go list -export -deps`
// walk of the whole module primes the export index, so later loads (the
// target packages, or fixture directories in tests) only pay for parsing
// and type-checking their own sources.
func NewLoader(dir string) (*Loader, error) {
	deps, err := goList(dir, "list", "-export", "-deps",
		"-json=ImportPath,Export,Standard", "./...")
	if err != nil {
		return nil, err
	}
	l := &Loader{dir: dir, fset: token.NewFileSet(), exports: exportIndex{}}
	for _, e := range deps {
		if e.Export != "" {
			l.exports[e.ImportPath] = e.Export
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.exports.lookup)
	return l, nil
}

// Load resolves patterns (e.g. "./...") to the module's packages and
// type-checks each from source. Test files are excluded: the suite
// checks production invariants, and several analyzers are specified as
// non-test-only.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Standard,Error"}, patterns...)
	targets, err := goList(l.dir, args...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, e := range targets {
		if e.Standard {
			continue
		}
		if e.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", e.ImportPath, e.Error.Err)
		}
		if len(e.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(e.GoFiles))
		for i, gf := range e.GoFiles {
			files[i] = filepath.Join(e.Dir, gf)
		}
		pkg, err := l.check(e.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses every non-test .go file in dir and type-checks them as
// a package with import path asPath. This is the fixture entry point:
// testdata packages are checked under the production import path they
// exercise, so path-scoped analyzers treat them exactly like the real
// package.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.check(asPath, files)
}

// check parses and type-checks one package's files.
func (l *Loader) check(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	sources := make(map[string][]byte, len(filenames))
	for _, fn := range filenames {
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, err := parser.ParseFile(l.fset, fn, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		sources[fn] = src
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info, Sources: sources}, nil
}
