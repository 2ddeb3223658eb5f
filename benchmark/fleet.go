package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/gate"
	"repro/internal/iforest"
	"repro/internal/serve"
	"repro/internal/stream"
)

// modelName is the registry name the fleet serves the model under.
const modelName = "ecg"

// replicaNames are the topology names of the three fleet replicas. The
// ring places the eight chunk keys ecg#0..ecg#7 of a bulk job on all
// three of them, which the bulk workload checks.
var replicaNames = []string{"r0", "r1", "r2"}

// replica is one in-process mfodserve.
type replica struct {
	name    string
	url     string
	reg     *serve.Registry
	pool    *serve.Pool
	streams *stream.Manager
	handler http.Handler // what srv serves, callable in memory
	srv     *http.Server
}

// fleet is the system under test: three replicas behind one mfodgate,
// in one process, as mfodload's hermetic -self mode boots them.
type fleet struct {
	modelPath  string
	gateURL    string
	replicas   []*replica
	gate       *gate.Gate
	gateSrv    *http.Server
	stopHealth chan struct{}
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// fitModel fits the paper's iFor(Curvmap) model on the Fig. 3 ECG data
// (n = 200, m = 85, p = 2) with the default LOOCV ladder, 300 trees and
// ψ = 64, and saves it to path. The model never depends on the
// workload seed.
func fitModel(path string) error {
	train, err := experiments.Fig3Dataset(200, 1)
	if err != nil {
		return err
	}
	p := experiments.CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 1}))
	if err := p.Fit(train); err != nil {
		return fmt.Errorf("fit model: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.SaveJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("save model: %w", err)
	}
	return f.Close()
}

// bootFleet fits and saves the model, loads it into three replicas,
// puts a gate in front of them and returns once the gate has answered
// probe with a 200. With rec set, every replica's pipeline carries the
// tracing decorators and both tiers' handlers the tracing wrappers.
func bootFleet(dir string, rec *recorder, client *http.Client, probe []byte) (_ *fleet, err error) {
	f := &fleet{modelPath: filepath.Join(dir, "model.json"), stopHealth: make(chan struct{})}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := fitModel(f.modelPath); err != nil {
		return nil, err
	}
	topo := gate.Topology{VNodes: 64}
	for i, name := range replicaNames {
		r, err := newReplica(name, f.modelPath, rec, i)
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, r)
		topo.Replicas = append(topo.Replicas, gate.Replica{Name: r.name, URL: r.url})
	}
	topoPath := filepath.Join(dir, "topology.json")
	raw, err := json.Marshal(topo)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(topoPath, raw, 0o644); err != nil {
		return nil, err
	}
	table, err := gate.LoadTable(topoPath)
	if err != nil {
		return nil, err
	}
	health := &gate.Health{Interval: 500 * time.Millisecond}
	health.Run(table, f.stopHealth)
	if f.gate, err = gate.New(gate.Config{Table: table, Health: health, Metrics: gate.NewMetrics(), Logger: quiet, EnableJobs: true}); err != nil {
		return nil, err
	}
	var h http.Handler = f.gate.Handler()
	if rec != nil {
		h = rec.wrap(h, kindGate, -1)
	}
	addr, srv, err := serveOn(h)
	if err != nil {
		return nil, err
	}
	f.gateURL, f.gateSrv = "http://"+addr, srv
	if err := waitScored(client, f.gateURL, probe); err != nil {
		return nil, err
	}
	return f, nil
}

// newReplica loads the model into a fresh registry and serves it with
// metrics, the worker pool and the streams manager wired as mfodserve
// wires them.
func newReplica(name, modelPath string, rec *recorder, owner int) (*replica, error) {
	reg := serve.NewRegistry()
	if err := reg.Load(modelName, modelPath); err != nil {
		return nil, err
	}
	metrics := serve.NewMetrics()
	pool := serve.NewPool(serve.PoolOptions{QueueCap: 256, Metrics: metrics})
	streams, err := serve.NewStreamManager(reg, metrics, serve.StreamOptions{})
	if err != nil {
		pool.Close()
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Registry: reg, Pool: pool, Metrics: metrics, Streams: streams, Logger: quiet})
	if err != nil {
		pool.Close()
		streams.Close()
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		m, _ := reg.Get(modelName)
		rec.decorate(m.Pipeline(), owner)
		h = rec.wrap(h, kindReplica, owner)
	}
	addr, hs, err := serveOn(h)
	if err != nil {
		pool.Close()
		streams.Close()
		return nil, err
	}
	return &replica{name: name, url: "http://" + addr, reg: reg, pool: pool, streams: streams, handler: h, srv: hs}, nil
}

// close shuts the replica down: listener and connections first, then
// the pool's workers and the stream janitor.
func (r *replica) close() {
	shutdown(r.srv)
	r.pool.Close()
	r.streams.Close()
}

// close stops every server and goroutine the fleet started.
func (f *fleet) close() {
	if f.gateSrv != nil {
		shutdown(f.gateSrv)
	}
	close(f.stopHealth)
	if f.gate != nil {
		f.gate.Jobs().Close()
	}
	for _, r := range f.replicas {
		r.close()
	}
}

func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}

// serveOn binds a loopback listener and serves h on it until the server
// is shut down.
func serveOn(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	//mfodlint:allow poolmisuse accept loop of one in-process server; it returns when the fleet's close shuts the server down
	go srv.Serve(ln)
	return ln.Addr().String(), srv, nil
}

// waitScored posts probe to the gate until it answers 200: the end of
// set-up, when the fleet is ready to score.
func waitScored(client *http.Client, base string, probe []byte) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Post(base+"/v1/score?model="+modelName, "application/json", bytes.NewReader(probe))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate did not score within 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// counters is one reading of every counter the benchmark takes from the
// fleet's public getters and /metrics pages, plus the Go runtime's.
type counters struct {
	batchSum, batchCount float64
	wasted, evicted      uint64
	fits                 uint64
	legs                 map[string]float64 // successful gate legs by replica
	mallocs              uint64
	gcCPU, totalCPU      float64
	idleCPU              float64
}

// read takes a counters snapshot. The /metrics pages are fetched over
// HTTP exactly as an operator would scrape them.
func (f *fleet) read(client *http.Client) (counters, error) {
	c := counters{legs: map[string]float64{}}
	for _, r := range f.replicas {
		page, err := scrape(client, r.url)
		if err != nil {
			return c, err
		}
		c.batchSum += page["mfod_batch_jobs_sum"]
		c.batchCount += page["mfod_batch_jobs_count"]
		c.wasted += r.pool.Wasted()
		c.evicted += r.pool.Evicted()
		c.fits += r.streams.FitsTotal()
	}
	page, err := scrape(client, f.gateURL)
	if err != nil {
		return c, err
	}
	for _, name := range replicaNames {
		c.legs[name] = page[fmt.Sprintf("mfodgate_replica_requests_total{replica=%q,outcome=\"ok\"}", name)]
	}
	c.mallocs, c.gcCPU, c.totalCPU, c.idleCPU = runtimeCounters()
	return c, nil
}

// scrape fetches a /metrics page into series → value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", base, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: bad line %q", base, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
