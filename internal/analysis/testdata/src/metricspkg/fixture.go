// Package metricspkg is an mfodlint fixture for the metricshygiene
// analyzer: exposition lines belong to the internal/metrics registry, so
// a # HELP or # TYPE literal anywhere else is reported.
package metricspkg

import "bytes"

// RenderBad hand-writes a family the registry never sees.
func RenderBad(buf *bytes.Buffer, v string) {
	buf.WriteString("# TYPE mfod_hits_total counter\n") // want "outside internal/metrics"
	buf.WriteString("mfod_hits_total " + v + "\n")
}

// RenderAllowed documents a tolerated hand-written line.
func RenderAllowed(buf *bytes.Buffer) {
	//mfodlint:allow metricshygiene fixture static page copied verbatim from an upstream exporter's documentation
	buf.WriteString("# HELP upstream_up Whether the upstream answered.\n")
}

// Prose mentions a # TYPE line mid-sentence and is not a declaration.
const Prose = "declare every family with a # TYPE line"
