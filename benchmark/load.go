package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/jobs"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Request shapes shared by every workload.
const (
	corpusSize   = 1024 // distinct request curves per seed
	jobCurves    = 2048 // curves per bulk job
	jobChunk     = 256  // chunk size of a bulk job
	jobBodies    = 4    // distinct bulk job bodies, used in turn
	liveStreams  = 64   // streams open at once in the stream workload
	appendPoints = 5    // points per stream append
)

// shape is what one operation of a workload is.
type shape int

const (
	shapeScore  shape = iota // one curve per JSON request to the gate
	shapeJob                 // one /v1/jobs bulk job, submit to last result
	shapeAppend              // one 5-point append with ?score=1
)

// workload is one traffic mix. rate > 0 makes it an open loop with
// seeded Poisson arrivals; rate 0 is the closed loop.
type workload struct {
	name   string
	shape  shape
	rate   float64
	jitter bool // every other request carries a fresh jittered grid
}

var workloads = map[string]workload{
	"interactive": {name: "interactive", shape: shapeScore, rate: 600},
	"bulk":        {name: "bulk", shape: shapeJob},
	"mixed-grid":  {name: "mixed-grid", shape: shapeScore, rate: 200, jitter: true},
	"stream":      {name: "stream", shape: shapeAppend, rate: 300},
}

// Phase ids keep the schedules, jitters and stream ids of the phases of
// one run apart.
const (
	phaseWarmup = 1 + iota
	phaseMeasure
	phaseTraced
	phaseLadder // + rung index 0..3
	phaseDirect = phaseLadder + 4
)

// curveKey names one request curve: a corpus curve, on the shared grid
// (jitter 0) or on the grid the jitter key generates. Keys are all the
// oracle needs to rebuild what was sent.
type curveKey struct {
	curve  int
	jitter uint64
}

// inputs are the request curves of one seed.
type inputs struct {
	seed   int64
	corpus []fda.Sample
	// jobs holds the corpus curves of each bulk job body, bodies their
	// wire frames.
	jobs   [][]curveKey
	bodies [][]byte
}

func newInputs(seed int64, wl workload) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: corpusSize, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, corpus: d.Samples}
	if wl.shape == shapeJob {
		for b := 0; b < jobBodies; b++ {
			keys := make([]curveKey, jobCurves)
			for i := range keys {
				keys[i] = curveKey{curve: rng.Intn(corpusSize)}
			}
			in.jobs = append(in.jobs, keys)
			in.bodies = append(in.bodies, wire.EncodeRequest(wire.Request{Dataset: in.dataset(keys)}))
		}
	}
	return in, nil
}

// sample rebuilds the curve a key names.
func (in *inputs) sample(k curveKey) fda.Sample {
	s := in.corpus[k.curve]
	if k.jitter == 0 {
		return s
	}
	return fda.Sample{Times: jitterTimes(s.Times, uint64(in.seed), k.jitter), Values: s.Values}
}

func (in *inputs) dataset(keys []curveKey) fda.Dataset {
	d := fda.Dataset{Samples: make([]fda.Sample, len(keys))}
	for i, k := range keys {
		d.Samples[i] = in.sample(k)
	}
	return d
}

// jitterTimes moves every interior time by up to ±10% of the grid
// spacing and keeps both endpoints, so the curve stays on the model's
// domain but lands on a grid no cache has seen.
func jitterTimes(ts []float64, seed, key uint64) []float64 {
	out := append([]float64(nil), ts...)
	h := (ts[len(ts)-1] - ts[0]) / float64(len(ts)-1)
	state := seed*0x9e3779b97f4a7c15 ^ key
	for j := 1; j < len(out)-1; j++ {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11) / (1 << 53)
		out[j] += (2*u - 1) * 0.1 * h
	}
	return out
}

// arrival is one scheduled operation of an open loop.
type arrival struct {
	at    time.Duration
	curve int
}

// schedule draws Poisson arrivals at rate over window for one sender of
// one phase, each with the corpus curve it uses.
func (in *inputs) schedule(phase, sender int, rate float64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(phase)*1009 + int64(sender)))
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < window.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, arrival{at: time.Duration(t * float64(time.Second)), curve: rng.Intn(len(in.corpus))})
	}
	return out
}

// gridHash is FNV-1a over a grid's float bits.
func gridHash(ts []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range ts {
		b := math.Float64bits(t)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// op is one measured operation. Times are offsets from the phase start;
// in the closed loop due equals sent.
type op struct {
	due, sent, done time.Duration
	first           time.Duration // first score back, when hasFirst
	hasFirst        bool
	ok              bool
	traced          bool
	keys            []curveKey // what each returned score must equal
	scores          []float64
	curves          float64 // curves' worth of points scored
}

func (o op) latency() time.Duration { return o.done - o.due }

// phase is what one driven phase produced.
type phase struct {
	ops       []op
	scheduled int // arrivals due in the window; ops started in the closed loop
	elapsed   time.Duration
	cpu       time.Duration  // process CPU time, less the speed meter's
	slowdown  float64        // the speed meter's, over the phase
	grids     map[uint64]int // curves sent per grid
	scored    int            // appends answered with a score
	retries   int            // chunk retries reported by finished jobs
	extraFail int            // stream deletes that failed
	queueMax  int
	before    counters
	after     counters
}

// loadgen runs phases of one workload against the fleet. All requests
// leave through client, whose transport holds at most two connections
// to the gate.
type loadgen struct {
	fl     *fleet
	in     *inputs
	wl     workload
	client *http.Client
	rec    *recorder
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// run drives the workload for window with the given number of senders.
// With alternate set (one sender only), tracing is switched on for
// every other operation, so traced and untraced operations interleave
// under the same load. With sampleQueue set, the replicas' queue depths
// are sampled every millisecond.
func (lg *loadgen) run(id int, window time.Duration, senders int, alternate, sampleQueue bool) (*phase, error) {
	ph := &phase{grids: map[uint64]int{}}
	var err error
	if ph.before, err = lg.fl.read(lg.client); err != nil {
		return nil, err
	}
	stopSampling := make(chan struct{})
	var sampled sync.WaitGroup
	if sampleQueue {
		sampled.Add(1)
		//mfodlint:allow poolmisuse queue-depth sampler: one ticker loop per phase, stopped by closing stopSampling and joined before the phase returns
		go func() {
			defer sampled.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
				}
				for _, r := range lg.fl.replicas {
					ph.queueMax = max(ph.queueMax, r.pool.QueueDepth())
				}
			}
		}()
	}
	start := time.Now()
	var meterErr error
	ph.cpu, ph.slowdown, meterErr = meteredCPU(phaseProbeEvery, func() {
		switch lg.wl.shape {
		case shapeScore:
			lg.scoreLoop(ph, id, start, window, senders, alternate)
		case shapeJob:
			lg.jobLoop(ph, start, window, alternate)
		case shapeAppend:
			lg.streamLoop(ph, id, start, window, senders, alternate)
		}
	})
	if lg.rec != nil {
		lg.rec.on.Store(false)
	}
	ph.elapsed = max(time.Since(start), window)
	close(stopSampling)
	sampled.Wait()
	if meterErr != nil {
		return nil, meterErr
	}
	if ph.after, err = lg.fl.read(lg.client); err != nil {
		return nil, err
	}
	return ph, nil
}

// setTraced switches tracing for the next operation of an alternating
// phase; only the phase's single sender calls it, between operations.
func (lg *loadgen) setTraced(alternate, traced bool) {
	if alternate {
		lg.rec.on.Store(traced)
	}
}

// clientSpan starts a client span when the operation is traced and
// returns the function that ends it.
func (lg *loadgen) clientSpan(traced bool) func() {
	if !traced {
		return func() {}
	}
	start := lg.rec.now()
	return func() { lg.rec.add(kindClient, -1, start) }
}

// sleepUntil blocks until due with nanosleep: time.Sleep wakes on the
// runtime's millisecond poller tick and would add ~0.5 ms of generator
// lag to every open-loop latency; nanosleep overshoots by ~70 µs.
func sleepUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// openLoop runs senders goroutines over one shared arrival schedule:
// each takes the next arrival, sleeps until it is due and sends it. An
// arrival still unsent when the window closes is not offered.
func openLoop(start time.Time, window time.Duration, arr []arrival, senders int, send func(i int, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		//mfodlint:allow poolmisuse load-generator sender: at most nproc of them, each sends one request at a time, and all are joined before the phase ends
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) || time.Since(start) > window {
					return
				}
				due := start.Add(arr[i].at)
				sleepUntil(due)
				send(i, due)
			}
		}()
	}
	wg.Wait()
}

func (lg *loadgen) scoreLoop(ph *phase, id int, start time.Time, window time.Duration, senders int, alternate bool) {
	arr := lg.in.schedule(id, 0, lg.wl.rate, window)
	ph.scheduled = len(arr)
	var mu sync.Mutex
	openLoop(start, window, arr, senders, func(i int, due time.Time) {
		key := curveKey{curve: arr[i].curve}
		if lg.wl.jitter && i%2 == 1 {
			key.jitter = uint64(id)<<32 | uint64(i)
		}
		s := lg.in.sample(key)
		body := scoreBody(s)
		traced := alternate && (i/2)%2 == 0
		lg.setTraced(alternate, traced)
		o := op{due: due.Sub(start), traced: traced, keys: []curveKey{key}, hasFirst: true}
		o.sent = time.Since(start)
		end := lg.clientSpan(traced)
		scores, err := postScores(lg.client, lg.fl.gateURL+"/v1/score?model="+modelName, body)
		end()
		o.done = time.Since(start)
		o.first = o.done - o.due
		if err == nil && len(scores) == 1 {
			o.ok, o.scores, o.curves = true, scores, 1
		}
		mu.Lock()
		ph.ops = append(ph.ops, o)
		ph.grids[gridHash(s.Times)]++
		mu.Unlock()
	})
}

// jobLoop keeps one bulk job in flight: submit, stream the results to
// the terminal line, submit the next.
func (lg *loadgen) jobLoop(ph *phase, start time.Time, window time.Duration, alternate bool) {
	for j := 0; time.Since(start) < window; j++ {
		b := j % len(lg.in.bodies)
		traced := j%2 == 0
		lg.setTraced(alternate, traced)
		o := op{sent: time.Since(start), traced: alternate && traced, keys: lg.in.jobs[b]}
		o.due = o.sent
		end := lg.clientSpan(o.traced)
		retries, err := lg.job(&o, start, lg.in.bodies[b])
		end()
		o.done = time.Since(start)
		o.ok = err == nil && len(o.scores) == jobCurves
		if o.ok {
			o.curves = jobCurves
		}
		ph.retries += retries
		ph.scheduled++
		ph.ops = append(ph.ops, o)
		ph.grids[gridHash(lg.in.corpus[0].Times)] += jobCurves
	}
}

// job submits one bulk job through the gate and reads its NDJSON
// results from cursor 0 to the terminal line.
func (lg *loadgen) job(o *op, start time.Time, body []byte) (retries int, err error) {
	u := lg.fl.gateURL + "/v1/jobs?model=" + modelName + "&chunk=" + fmt.Sprint(jobChunk)
	resp, err := lg.client.Post(u, wire.ContentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var sub struct {
		ResultsURL string `json:"resultsUrl"`
	}
	err = decodeBody(resp, http.StatusAccepted, &sub)
	if err != nil {
		return 0, err
	}
	resp, err = lg.client.Get(lg.fl.gateURL + sub.ResultsURL + "?cursor=0")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("job results: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		run, end, err := jobs.ParseResultLine(sc.Bytes())
		if err != nil {
			return 0, err
		}
		if end != nil {
			if end.State != jobs.StateDone {
				return end.Retries, fmt.Errorf("job ended %s: %s", end.State, end.Error)
			}
			return end.Retries, nil
		}
		if run.Start != len(o.scores) {
			return 0, fmt.Errorf("results run starts at %d, have %d scores", run.Start, len(o.scores))
		}
		if !o.hasFirst {
			o.first, o.hasFirst = time.Since(start)-o.sent, true
		}
		o.scores = append(o.scores, run.Scores...)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("job results ended without a terminal line")
}

// liveStream is one stream a sender is writing: a corpus curve sent
// appendPoints at a time.
type liveStream struct {
	id    string
	curve int
	off   int
}

// streamLoop gives each sender its own Poisson schedule and its own
// share of the live streams, so a stream's appends always come in order
// from one sender. A finished stream is deleted and replaced.
func (lg *loadgen) streamLoop(ph *phase, id int, start time.Time, window time.Duration, senders int, alternate bool) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		arr := lg.in.schedule(id, s+1, lg.wl.rate/float64(senders), window)
		if len(arr) == 0 {
			continue
		}
		mu.Lock()
		ph.scheduled += len(arr)
		mu.Unlock()
		wg.Add(1)
		//mfodlint:allow poolmisuse load-generator sender: at most nproc of them, each writes its own streams one append at a time, and all are joined before the phase ends
		go func(s int) {
			defer wg.Done()
			live := make([]*liveStream, liveStreams/senders)
			made := 0
			open := func(curve int) *liveStream {
				made++
				return &liveStream{id: fmt.Sprintf("p%d-%d-%d", id, s, made), curve: curve}
			}
			for j := range live {
				live[j] = open(arr[j%len(arr)].curve)
			}
			var ops []op
			fails := 0
			for i, a := range arr {
				if time.Since(start) > window {
					break
				}
				due := start.Add(a.at)
				sleepUntil(due)
				st := live[i%len(live)]
				traced := i%2 == 0
				lg.setTraced(alternate, traced)
				o := lg.appendOp(st, start, due, alternate && traced)
				ops = append(ops, o)
				if st.off == len(lg.in.corpus[st.curve].Times) {
					lg.setTraced(alternate, false)
					if err := lg.deleteStream(st.id); err != nil {
						fails++
					}
					live[i%len(live)] = open(a.curve)
				}
			}
			lg.setTraced(alternate, false)
			for _, st := range live {
				if st.off > 0 {
					if err := lg.deleteStream(st.id); err != nil {
						fails++
					}
				}
			}
			mu.Lock()
			ph.ops = append(ph.ops, ops...)
			ph.extraFail += fails
			for _, o := range ops {
				if o.ok {
					ph.scored++
				}
			}
			ph.grids[gridHash(lg.in.corpus[0].Times)] += len(ops)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
}

// appendOp sends the stream's next appendPoints points with ?score=1.
// The stream's first append carries its time to first score; its last
// must reach coverage 1, and that score is kept for the oracle.
func (lg *loadgen) appendOp(st *liveStream, start, due time.Time, traced bool) op {
	s := lg.in.corpus[st.curve]
	m := len(s.Times)
	to := min(st.off+appendPoints, m)
	body := appendBody(points(s, st.off, to))
	o := op{due: due.Sub(start), traced: traced, hasFirst: st.off == 0, curves: float64(to-st.off) / float64(m)}
	o.sent = time.Since(start)
	end := lg.clientSpan(traced)
	resp, err := lg.client.Post(lg.fl.gateURL+"/v1/streams/"+url.PathEscape(st.id)+"/append?score=1", "application/json", bytes.NewReader(body))
	var res stream.AppendResult
	if err == nil {
		err = decodeBody(resp, http.StatusOK, &res)
	}
	end()
	o.done = time.Since(start)
	o.first = o.done - o.due
	st.off = to
	o.ok = err == nil && res.Score != nil
	if o.ok && to == m {
		// The final append must cover the whole model grid; its score is
		// then the batch score of the complete curve.
		o.ok = res.Score.GridFrom == 0 && res.Score.GridTo == m-1
		o.keys, o.scores = []curveKey{{curve: st.curve}}, []float64{res.Score.Score}
	}
	if !o.ok {
		o.curves = 0
	}
	return o
}

func (lg *loadgen) deleteStream(id string) error {
	req, err := http.NewRequest(http.MethodDelete, lg.fl.gateURL+"/v1/streams/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		return err
	}
	return decodeBody(resp, http.StatusOK, nil)
}

// scoreBody is the JSON body of a one-curve scoring request.
func scoreBody(s fda.Sample) []byte {
	type sample struct {
		Times  []float64   `json:"times"`
		Values [][]float64 `json:"values"`
	}
	body, _ := json.Marshal(struct {
		Samples []sample `json:"samples"`
	}{[]sample{{s.Times, s.Values}}})
	return body
}

// points is the stream payload of s's observations [from, to).
func points(s fda.Sample, from, to int) []stream.Point {
	pts := make([]stream.Point, 0, to-from)
	for j := from; j < to; j++ {
		v := make([]float64, len(s.Values))
		for k := range v {
			v[k] = s.Values[k][j]
		}
		pts = append(pts, stream.Point{T: s.Times[j], V: v})
	}
	return pts
}

// appendBody is the JSON body of a stream append naming the model.
func appendBody(pts []stream.Point) []byte {
	body, _ := json.Marshal(struct {
		Model  string         `json:"model"`
		Points []stream.Point `json:"points"`
	}{modelName, pts})
	return body
}

// postScores posts one JSON scoring request and returns the scores.
func postScores(client *http.Client, u string, body []byte) ([]float64, error) {
	resp, err := client.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var out struct {
		Scores []float64 `json:"scores"`
	}
	err = decodeBody(resp, http.StatusOK, &out)
	return out.Scores, err
}

// decodeBody checks the status, decodes the JSON body into v (when not
// nil) and drains and closes the body so the connection is reused.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != want {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s", resp.Request.Method, resp.Request.URL.Path, bytes.TrimSpace(append([]byte(resp.Status+" "), raw...)))
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
