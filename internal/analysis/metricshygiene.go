package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// Metricshygiene keeps the Prometheus exposition format inside
// internal/metrics. The registry there turns the naming rules — one
// namespace prefix per page, one declaration per family, _total on
// counters only, _bucket/_sum/_count written by the renderer alone —
// into construction-time panics, but only for families declared through
// it. A `# HELP` or `# TYPE` line written as a string literal anywhere
// else is a hand-rolled family those checks never see, and that is the
// one rule a type cannot express.
var Metricshygiene = &Analyzer{
	Name: "metricshygiene",
	Doc: "no # HELP / # TYPE exposition literal outside internal/metrics: " +
		"families are declared through the typed registry, whose " +
		"constructors enforce the naming and suffix rules",
	Run: runMetricshygiene,
}

// expositionLine matches a literal line that declares a family.
var expositionLine = regexp.MustCompile(`(?m)^\s*# (HELP|TYPE) \S`)

func runMetricshygiene(p *Pass) {
	if strings.HasSuffix(p.Path, "internal/metrics") || strings.Contains(p.Path, "internal/metrics/") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && expositionLine.MatchString(s) {
				p.Reportf(lit.Pos(), "Prometheus exposition line outside internal/metrics: "+
					"declare the family on a metrics.Registry so its name, kind and suffixes are checked")
			}
			return true
		})
	}
}
