package serve

import (
	"time"

	"repro/internal/faultinject"
	"repro/internal/stream"
)

// StreamOptions configures the serving tier's streaming-ingestion
// manager; zero values select the stream package defaults.
type StreamOptions struct {
	// MaxStreams caps concurrent live streams (full => 429).
	MaxStreams int
	// Window keeps only the newest N observations per stream (sliding
	// window for drifting baselines); 0 keeps everything.
	Window int
	// MaxAppend caps points per append request.
	MaxAppend int
	// IdleTTL evicts streams untouched for this long.
	IdleTTL time.Duration
}

// NewStreamManager builds a stream.Manager resolving model names
// through the registry. With a non-nil metrics it registers the
// manager's series there, read from the manager at scrape time (the
// mfod_streams_active gauge and companion counters).
// Stream creation pins the pipeline snapshot the first append saw; a
// hot-reload affects new streams only, exactly like in-flight scoring.
func NewStreamManager(reg *Registry, metrics *Metrics, opt StreamOptions) (*stream.Manager, error) {
	mgr, err := stream.NewManager(stream.Options{
		Resolve: func(name string) (stream.Model, bool) {
			m, ok := reg.Get(name)
			if !ok {
				return nil, false
			}
			return m.Pipeline(), true
		},
		MaxStreams: opt.MaxStreams,
		Window:     opt.Window,
		MaxAppend:  opt.MaxAppend,
		IdleTTL:    opt.IdleTTL,
	})
	if err != nil {
		return nil, err
	}
	if metrics != nil {
		metrics.registerStreams(mgr.Active, mgr.AppendsTotal, mgr.EvictedTotal, mgr.FitsTotal)
	}
	return mgr, nil
}

// registerStreams declares the streaming tier's families, read at
// scrape time from the manager that keeps their counts: the live-stream
// gauge and the append, eviction and refit counters.
func (m *Metrics) registerStreams(active func() int, appends, evicted, fits func() uint64) {
	m.reg.GaugeFunc("mfod_streams_active", "Live ingestion streams.", active)
	m.reg.CounterFunc("mfod_stream_appends_total", "Observations accepted across all streams.", appends)
	m.reg.CounterFunc("mfod_streams_evicted_total", "Idle streams reclaimed by the janitor.", evicted)
	m.reg.CounterFunc("mfod_stream_fits_total", "Incremental refits performed by stream scoring.", fits)
}

// streamAdmit is the admission hook the server wires into the stream
// API: the serve.shed fault point sheds appends exactly like it sheds
// interactive scoring, so chaos suites can drive overload on the
// streaming path too.
func (s *Server) streamAdmit() error {
	if err := faultinject.Hit(FaultShed); err != nil {
		s.cfg.Metrics.shed.Inc()
		return err
	}
	return nil
}
