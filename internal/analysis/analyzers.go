package analysis

// All returns the full analyzer suite in the order diagnostics are
// documented in README ("Static analysis"): the four numeric-core
// analyzers from the original mfodlint, then the four distributed-tier
// analyzers that extend the same guarantees to the serving stack.
func All() []*Analyzer {
	return []*Analyzer{
		Nodeterminism,
		Floateq,
		Mutafterfit,
		Poolmisuse,
		Ctxpropagate,
		Lockio,
		Wirebounds,
		Metricshygiene,
	}
}
