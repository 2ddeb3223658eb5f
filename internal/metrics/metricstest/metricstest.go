// Package metricstest holds a strict checker for Prometheus text pages,
// for tests that scrape a live /metrics endpoint and want more than a
// substring match.
package metricstest

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// Check parses page and reports every violation it finds, joined:
//
//   - every series belongs to the family declared by the preceding
//     # TYPE line, with a suffix that matches the family's kind (bare
//     for counters and gauges, _bucket/_sum/_count for histograms,
//     _sum/_count for summaries);
//   - no family is declared twice and no series line repeats;
//   - every value parses as a float;
//   - histogram buckets are non-decreasing in le, and each label set's
//     +Inf bucket equals its _count.
func Check(page string) error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	declared := map[string]bool{}
	seen := map[string]bool{}
	family, kind := "", ""
	// The last bucket seen per label set (le excluded) of the current
	// histogram; after the +Inf bucket, le is +Inf and last its count.
	type hist struct{ le, last float64 }
	hists := map[string]*hist{}
	counts := map[string]float64{}
	closeFamily := func(line int) {
		for labels, h := range hists {
			c, ok := counts[labels]
			switch {
			case !math.IsInf(h.le, 1):
				fail(line, "histogram %s{%s} has no +Inf bucket", family, labels)
			case !ok:
				fail(line, "histogram %s{%s} has no _count", family, labels)
			case math.Float64bits(h.last) != math.Float64bits(c): // both are integer counts
				fail(line, "histogram %s{%s}: +Inf bucket %v != _count %v", family, labels, h.last, c)
			}
		}
		hists, counts = map[string]*hist{}, map[string]float64{}
	}

	lines := strings.Split(strings.TrimSuffix(page, "\n"), "\n")
	for i, text := range lines {
		n := i + 1
		if strings.HasPrefix(text, "# HELP ") {
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			closeFamily(n)
			f := strings.Fields(text)
			if len(f) != 4 {
				fail(n, "malformed TYPE line %q", text)
				family, kind = "", ""
				continue
			}
			family, kind = f[2], f[3]
			if declared[family] {
				fail(n, "family %s declared twice", family)
			}
			declared[family] = true
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, labels, le, value, err := parseSeries(text)
		if err != nil {
			fail(n, "%v", err)
			continue
		}
		id := text[:strings.LastIndexByte(text, ' ')]
		if seen[id] {
			fail(n, "series %s repeats", id)
		}
		seen[id] = true
		if family == "" {
			fail(n, "series %s before any # TYPE", name)
			continue
		}
		suffix, ok := strings.CutPrefix(name, family)
		if !ok || !suffixFits(kind, suffix) {
			fail(n, "series %s does not belong to %s family %s", name, kind, family)
			continue
		}
		if (suffix == "_bucket") != (le != "") {
			fail(n, "series %s: le label on a non-bucket series or a bucket without le", name)
			continue
		}
		switch suffix {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				fail(n, "bucket bound le=%q: %v", le, err)
				continue
			}
			h := hists[labels]
			if h == nil {
				h = &hist{le: bound, last: value}
				hists[labels] = h
			} else if bound <= h.le || value < h.last {
				fail(n, "bucket le=%q of %s{%s} is out of order or decreasing", le, family, labels)
			}
			h.le, h.last = bound, value
		case "_count":
			if kind == "histogram" {
				counts[labels] = value
			}
		}
	}
	closeFamily(len(lines))
	return errors.Join(errs...)
}

// suffixFits reports whether a series suffix is one a family of kind
// writes.
func suffixFits(kind, suffix string) bool {
	switch kind {
	case "counter", "gauge":
		return suffix == ""
	case "histogram":
		return suffix == "_bucket" || suffix == "_sum" || suffix == "_count"
	case "summary":
		return suffix == "_sum" || suffix == "_count"
	}
	return false
}

var (
	seriesLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelBlock = regexp.MustCompile(`^(?:[a-zA-Z_]\w*="(?:[^"\\]|\\.)*"(?:,|$))*$`)
	labelPair  = regexp.MustCompile(`([a-zA-Z_]\w*)="((?:[^"\\]|\\.)*)"`)
)

// parseSeries splits one series line into its name, its label pairs
// without le (as a canonical key), the le value and the sample value.
func parseSeries(text string) (name, labels, le string, value float64, err error) {
	m := seriesLine.FindStringSubmatch(text)
	if m == nil || !labelBlock.MatchString(m[2]) {
		return "", "", "", 0, fmt.Errorf("malformed series %q", text)
	}
	var keep []string
	for _, p := range labelPair.FindAllStringSubmatch(m[2], -1) {
		if p[1] == "le" {
			le = p[2]
		} else {
			keep = append(keep, p[0])
		}
	}
	if value, err = strconv.ParseFloat(m[3], 64); err != nil {
		return "", "", "", 0, fmt.Errorf("series %s: bad value %q", m[1], m[3])
	}
	return m[1], strings.Join(keep, ","), le, value, nil
}
