package metricstest

import (
	"strings"
	"testing"
)

const good = `# HELP x_total Requests.
# TYPE x_total counter
x_total{model="a b",code="200"} 3
x_total{model="a",code="200"} 1
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{codec="wire",le="0.5"} 1
x_seconds_bucket{codec="wire",le="1.048576e+06"} 2
x_seconds_bucket{codec="wire",le="+Inf"} 3
x_seconds_sum{codec="wire"} 1.5233999999999999
x_seconds_count{codec="wire"} 3
# HELP x_jobs Batches.
# TYPE x_jobs summary
x_jobs_sum 4
x_jobs_count 2
# HELP x_idle_total No series yet.
# TYPE x_idle_total counter
`

func TestCheckAcceptsWellFormedPage(t *testing.T) {
	if err := Check(good); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejects has one row per rule; each page breaks exactly one.
func TestCheckRejects(t *testing.T) {
	for _, tc := range []struct{ name, page, want string }{
		{"series before any TYPE", "x_total 1\n", "before any # TYPE"},
		{"series of another family", "# TYPE x_total counter\ny_total 1\n", "does not belong"},
		{"suffix wrong for kind", "# TYPE x gauge\nx_count 1\n", "does not belong"},
		{"bare histogram", "# TYPE x histogram\nx 1\n", "does not belong"},
		{"bucket on a summary", "# TYPE x summary\nx_bucket{le=\"1\"} 1\n", "does not belong"},
		{"family declared twice", "# TYPE x gauge\n# TYPE x gauge\n", "declared twice"},
		{"repeated series", "# TYPE x_total counter\nx_total{a=\"1\"} 1\nx_total{a=\"1\"} 2\n", "repeats"},
		{"bad value", "# TYPE x gauge\nx one\n", "bad value"},
		{"unterminated labels", "# TYPE x_total counter\nx_total{a=\"1\" 1\n", "malformed"},
		{"bucket without le", "# TYPE x histogram\nx_bucket 1\nx_count 1\n", "bucket without le"},
		{"decreasing buckets", "# TYPE x histogram\nx_bucket{le=\"1\"} 2\nx_bucket{le=\"2\"} 1\nx_bucket{le=\"+Inf\"} 2\nx_count 2\n", "decreasing"},
		{"unsorted bounds", "# TYPE x histogram\nx_bucket{le=\"2\"} 1\nx_bucket{le=\"1\"} 1\nx_bucket{le=\"+Inf\"} 1\nx_count 1\n", "out of order"},
		{"+Inf differs from count", "# TYPE x histogram\nx_bucket{le=\"+Inf\"} 2\nx_count 3\n", "!= _count"},
		{"missing +Inf", "# TYPE x histogram\nx_bucket{le=\"1\"} 2\nx_count 2\n", "no +Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Check(tc.page)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
