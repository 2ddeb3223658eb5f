package metrics_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/metrics/metricstest"
)

func page(r *metrics.Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

// TestRegistrationPanics has one row per naming rule: each is a wiring
// bug the registry refuses at construction time.
func TestRegistrationPanics(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		build      func(r *metrics.Registry)
	}{
		{"outside the prefix", "lacks the registry prefix", func(r *metrics.Registry) {
			r.Counter("requests_total", "Help.")
		}},
		{"invalid name", "not a valid metric name", func(r *metrics.Registry) {
			r.GaugeFunc("mfod_queue-depth", "Help.", func() int { return 0 })
		}},
		{"duplicate family", "registered twice", func(r *metrics.Registry) {
			r.Counter("mfod_hits_total", "Help.")
			r.Counter("mfod_hits_total", "Help.", "model")
		}},
		{"duplicate scrape-time family", "registered twice", func(r *metrics.Registry) {
			r.GaugeFunc("mfod_queue_depth", "Help.", func() int { return 0 })
			r.GaugeFunc("mfod_queue_depth", "Help.", func() int { return 0 })
		}},
		{"counter without _total", "must end in _total", func(r *metrics.Registry) {
			r.Counter("mfod_errors", "Help.")
		}},
		{"gauge with _total", "must not end in _total", func(r *metrics.Registry) {
			r.GaugeFunc("mfod_workers_total", "Help.", func() int { return 0 })
		}},
		{"histogram with _total", "must not end in _total", func(r *metrics.Registry) {
			r.Histogram("mfod_latency_total", "Help.", []float64{1})
		}},
		{"renderer suffix", "only the renderer writes", func(r *metrics.Registry) {
			r.GaugeFunc("mfod_jobs_count", "Help.", func() int { return 0 })
		}},
		{"bad label key", "invalid, reserved or repeated label key", func(r *metrics.Registry) {
			r.Counter("mfod_hits_total", "Help.", "model-name")
		}},
		{"le label key", "invalid, reserved or repeated label key", func(r *metrics.Registry) {
			r.Histogram("mfod_latency_seconds", "Help.", []float64{1}, "le")
		}},
		{"quantile label key", "invalid, reserved or repeated label key", func(r *metrics.Registry) {
			r.Histogram("mfod_latency_seconds", "Help.", []float64{1}, "quantile")
		}},
		{"repeated label key", "repeated label key \"model\"", func(r *metrics.Registry) {
			r.Counter("mfod_hits_total", "Help.", "model", "model")
		}},
		{"wrong label count on observe", "takes label values for [model code], got 1", func(r *metrics.Registry) {
			r.Counter("mfod_requests_total", "Help.", "model", "code").Inc("ecg")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				got := fmt.Sprint(recover())
				if !strings.Contains(got, tc.want) {
					t.Fatalf("panic = %q, want one containing %q", got, tc.want)
				}
			}()
			tc.build(metrics.NewRegistry("mfod_"))
		})
	}
}

// TestWritePrometheus pins the exposition format of every kind: sorted
// families and series, %q label values, le last, %g bounds and sums,
// integer counters and gauges, and header lines for a family with no
// series yet.
func TestWritePrometheus(t *testing.T) {
	r := metrics.NewRegistry("mfod_")
	req := r.Counter("mfod_requests_total", "Requests.", "model", "code")
	req.Inc("b", "200")
	req.Add(2, "a", "429")
	req.Inc("a", "200")
	req.Add(1_000_000, `q"x`, "200")
	r.Counter("mfod_idle_total", "Never incremented.", "model")
	lat := r.Histogram("mfod_latency_seconds", "Latency.", []float64{0.5, 1 << 20}, "codec")
	lat.Observe(0.1, "wire")
	lat.Observe(0.2, "wire")
	lat.Observe(2e6, "wire")
	lat.Observe(math.NaN(), "wire")
	lat.Observe(-1, "wire")
	r.Counter("mfod_appends_total", "Appends.").Add(2_000_000)
	r.CounterFunc("mfod_fits_total", "Fits.", func() uint64 { return 7 })
	r.GaugeFunc("mfod_queue_depth", "Queue.", func() int { return -2 })
	r.InfoFunc("mfod_down_info", "Down replicas.", "replica", func() []string { return []string{"r3", "r1"} })

	want := `# HELP mfod_appends_total Appends.
# TYPE mfod_appends_total counter
mfod_appends_total 2000000
# HELP mfod_down_info Down replicas.
# TYPE mfod_down_info gauge
mfod_down_info{replica="r1"} 1
mfod_down_info{replica="r3"} 1
# HELP mfod_fits_total Fits.
# TYPE mfod_fits_total counter
mfod_fits_total 7
# HELP mfod_idle_total Never incremented.
# TYPE mfod_idle_total counter
# HELP mfod_latency_seconds Latency.
# TYPE mfod_latency_seconds histogram
mfod_latency_seconds_bucket{codec="wire",le="0.5"} 3
mfod_latency_seconds_bucket{codec="wire",le="1.048576e+06"} 3
mfod_latency_seconds_bucket{codec="wire",le="+Inf"} 5
mfod_latency_seconds_sum{codec="wire"} 2.0000003e+06
mfod_latency_seconds_count{codec="wire"} 5
# HELP mfod_queue_depth Queue.
# TYPE mfod_queue_depth gauge
mfod_queue_depth -2
# HELP mfod_requests_total Requests.
# TYPE mfod_requests_total counter
mfod_requests_total{model="a",code="200"} 1
mfod_requests_total{model="a",code="429"} 2
mfod_requests_total{model="b",code="200"} 1
mfod_requests_total{model="q\"x",code="200"} 1000000
`
	got := page(r)
	if got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
	if err := metricstest.Check(got); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentObserveAndRender adds families and observes from many
// goroutines while another renders; run under -race. Every page
// rendered mid-flight must pass the strict checker, and the final page
// must hold every observation.
func TestConcurrentObserveAndRender(t *testing.T) {
	r := metrics.NewRegistry("mfod_")
	req := r.Counter("mfod_requests_total", "Requests.", "model")
	lat := r.Histogram("mfod_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	size := r.Histogram("mfod_size_bytes", "Sizes.", []float64{1, 2}, "codec")

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.GaugeFunc(fmt.Sprintf("mfod_worker%d_depth", w), "Worker depth.", func() int { return w })
			for i := 0; i < rounds; i++ {
				req.Inc(fmt.Sprintf("m%d", i%3))
				lat.Observe(float64(i%5) * 0.05)
				size.Observe(float64(i%4), "wire")
			}
		}(w)
	}
	stop := make(chan struct{})
	rendered := make(chan error, 1)
	go func() {
		var err error
		for {
			select {
			case <-stop:
				rendered <- err
				return
			default:
			}
			if cerr := metricstest.Check(page(r)); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-rendered; err != nil {
		t.Fatalf("page rendered mid-flight fails the checker: %v", err)
	}
	final := page(r)
	for _, want := range []string{
		fmt.Sprintf("mfod_latency_seconds_count %d\n", workers*rounds),
		fmt.Sprintf("mfod_size_bytes_count{codec=\"wire\"} %d\n", workers*rounds),
		"mfod_worker7_depth 7\n",
	} {
		if !strings.Contains(final, want) {
			t.Errorf("final page lacks %q:\n%s", want, final)
		}
	}
	var total int
	for _, line := range strings.Split(final, "\n") {
		if rest, ok := strings.CutPrefix(line, "mfod_requests_total{"); ok {
			n, _ := strconv.Atoi(rest[strings.LastIndexByte(rest, ' ')+1:])
			total += n
		}
	}
	if total != workers*rounds {
		t.Errorf("requests total = %d, want %d", total, workers*rounds)
	}
}
