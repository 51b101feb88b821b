// Package lint is districtlint's engine: a zero-dependency static
// analysis suite over the standard library's go/parser and go/types
// that machine-checks the project invariants PRs 1–5 established by
// convention — error-envelope discipline in handler packages, context
// threading, no IO under fan-out locks, and checked Close/Sync on
// durability paths. Each invariant is one Analyzer; cmd/districtlint
// loads every package of the module and runs the suite, and LINTING.md
// documents what each rule enforces and why.
//
// Findings can be suppressed, one line at a time, with a directive
// comment naming the rule and the reason:
//
//	//lint:ignore lockio held lock is local; append cannot block
//	x.mu.Lock()
//
// A directive on its own line silences the named rule on the next
// line; a trailing directive silences its own line. The reason is
// mandatory, and a directive naming a rule the suite does not have is
// itself a diagnostic — a typoed suppression must never silently stop
// suppressing.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, located at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Analyzer is one rule of the suite.
type Analyzer struct {
	// Name is the rule name used in output and //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the rule encodes.
	Doc string
	// Run reports the rule's findings on one package through the pass.
	Run func(*Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	*Package
	rule    string
	collect *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.collect = append(*p.collect, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Analyzers.APIEnvelope,
		Analyzers.CloseCheck,
		Analyzers.CtxFlow,
		Analyzers.HotAlloc,
		Analyzers.LockIO,
		Analyzers.ObsNames,
	}
}

// Analyzers names each rule of the suite individually (tests run them
// in isolation against their fixture packages).
var Analyzers = struct {
	APIEnvelope *Analyzer
	CloseCheck  *Analyzer
	CtxFlow     *Analyzer
	HotAlloc    *Analyzer
	LockIO      *Analyzer
	ObsNames    *Analyzer
}{
	APIEnvelope: apiEnvelopeAnalyzer,
	CloseCheck:  closeCheckAnalyzer,
	CtxFlow:     ctxFlowAnalyzer,
	HotAlloc:    hotAllocAnalyzer,
	LockIO:      lockIOAnalyzer,
	ObsNames:    obsNamesAnalyzer,
}

// Run applies analyzers to every package, resolves //lint:ignore
// suppressions, and returns the surviving findings ordered by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Package: pkg, rule: a.Name, collect: &diags})
		}
		supp, meta := collectIgnores(pkg, known)
		for _, d := range diags {
			if supp[suppKey{file: d.Pos.Filename, line: d.Pos.Line, rule: d.Rule}] {
				continue
			}
			out = append(out, d)
		}
		out = append(out, meta...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// ignorePrefix introduces a suppression directive comment.
const ignorePrefix = "//lint:ignore"

// suppKey addresses one suppressed (file, line, rule).
type suppKey struct {
	file string
	line int
	rule string
}

// collectIgnores scans a package's comments for //lint:ignore
// directives. It returns the suppression set and the directives' own
// diagnostics (unknown rule name, missing reason) — those are reported
// under the "lint" pseudo-rule and are not themselves suppressible.
func collectIgnores(pkg *Package, known map[string]bool) (map[suppKey]bool, []Diagnostic) {
	supp := make(map[suppKey]bool)
	var meta []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				rule, reason, _ := strings.Cut(rest, " ")
				// Fixture files annotate expectations with trailing
				// "// want" markers; they are not part of the reason.
				if i := strings.Index(reason, "// want"); i >= 0 {
					reason = reason[:i]
				}
				reason = strings.TrimSpace(reason)
				if rule == "" || !known[rule] {
					meta = append(meta, Diagnostic{
						Pos:  pos,
						Rule: "lint",
						Message: fmt.Sprintf(
							"//lint:ignore names unknown rule %q (rules: %s)", rule, ruleNames(known)),
					})
					continue
				}
				if reason == "" {
					meta = append(meta, Diagnostic{
						Pos:     pos,
						Rule:    "lint",
						Message: fmt.Sprintf("//lint:ignore %s needs a reason", rule),
					})
					continue
				}
				// A directive alone on its line suppresses the next
				// line; trailing a statement, it suppresses its own.
				line := pos.Line + 1
				if trailsCode(pkg.Sources[pos.Filename], pos) {
					line = pos.Line
				}
				supp[suppKey{file: pos.Filename, line: line, rule: rule}] = true
			}
		}
	}
	return supp, meta
}

// trailsCode reports whether the directive at pos has code before it on
// its line (a trailing comment) rather than only whitespace.
func trailsCode(src []byte, pos token.Position) bool {
	if src == nil || pos.Offset > len(src) {
		return pos.Column > 1
	}
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return false
		case ' ', '\t', '\r':
			continue
		default:
			return true
		}
	}
	return false
}

// ruleNames renders the known rule set for the unknown-rule message.
func ruleNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
