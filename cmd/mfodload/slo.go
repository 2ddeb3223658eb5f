// SLO chaos-harness mode: scripted failure scenarios over the hermetic
// -self fleet, each driven with a real client deadline propagated via
// X-Mfod-Deadline-Ms, scored on goodput (200s inside the deadline),
// shed rate (honest 429s) and wasted work (fleet answers computed for
// callers that already gave up). The run writes BENCH_slo.json and
// fails when goodput drops below -slo-min-goodput, when overload
// produces anything worse than a 429, or when wasted work exceeds
// -slo-max-wasted — the CI gate for the deadline/overload machinery.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// sloScenario is one scripted phase's scorecard.
type sloScenario struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// OK counts 200s that arrived inside the client deadline — goodput's
	// numerator. A 200 after the deadline is wasted, not good.
	OK             int     `json:"ok"`
	Shed           int     `json:"shed"` // 429s: honest backpressure
	Errors         int     `json:"errors"`
	DeadlineMisses int     `json:"deadlineMisses"`
	Goodput        float64 `json:"goodput"`
	ShedRate       float64 `json:"shedRate"`
	P99Ms          float64 `json:"p99Ms"`
	// P99WithinDeadline: the 99th-percentile completed request (any
	// status) answered before the client would have walked away.
	P99WithinDeadline bool `json:"p99WithinDeadline"`
	// Injected counts the faults that fired during the scenario: delays
	// in front of the slowed replica's /v1/score, or serve.FaultBatch
	// stalls. A fault scenario that injected nothing proves nothing.
	Injected uint64 `json:"injected"`
}

// sloReport is the BENCH_slo.json document.
type sloReport struct {
	Fleet      int           `json:"fleet"`
	Model      string        `json:"model"`
	DeadlineMs float64       `json:"deadlineMs"`
	Scenarios  []sloScenario `json:"scenarios"`
	// WastedWork is the fleet-wide count of jobs scored to completion for
	// waiters that had already given up; the deadline machinery exists to
	// hold this at zero.
	WastedWork uint64  `json:"wastedWork"`
	Evicted    uint64  `json:"evicted"`
	MinGoodput float64 `json:"minGoodput"`
	Pass       bool    `json:"pass"`
}

func runSLO(o loadOptions) error {
	if o.selfFleet <= 0 {
		return errors.New("-slo needs -self N (the scenarios script replica faults, so the fleet must be in-process)")
	}
	if o.deadline <= 0 {
		return errors.New("-deadline must be positive")
	}
	if o.codec != "wire" && o.codec != "json" {
		return fmt.Errorf("bad -codec %q, want wire or json", o.codec)
	}
	if o.out == "BENCH_serve.json" {
		o.out = "BENCH_slo.json"
	}
	if o.duration > 10*time.Second {
		o.duration = 10 * time.Second // per scenario; four scenarios run
	}
	// Small pools so overload actually overflows: 2 workers, one job per
	// batch, a queue shallow enough that its worst-case wait stays far
	// inside the client deadline (8 jobs × the injected 25ms ≪ deadline),
	// keeping "admitted" and "answerable in time" the same thing.
	popt := serve.PoolOptions{Workers: 2, QueueCap: 8, MaxBatch: 1}
	fleet, err := bootSelfFleet(o.selfFleet, o.model, popt, 100*time.Millisecond)
	if err != nil {
		return err
	}
	// The request codec follows -codec on every leg of every scenario —
	// the SLO machinery must hold for JSON clients exactly as for wire.
	bodies, _, _, err := buildBodies(fleet.d, 1, o.codec)
	if err != nil {
		return err
	}

	primary, err := primaryOf(fleet.base, o.model)
	if err != nil {
		return err
	}
	if fleet.replica(primary) == nil {
		return fmt.Errorf("topology routes %q to unknown replica %q", o.model, primary)
	}
	fmt.Fprintf(os.Stderr, "mfodload: slo run, fleet=%d deadline=%v primary=%s\n",
		o.selfFleet, o.deadline, primary)

	rep := sloReport{
		Fleet:      o.selfFleet,
		Model:      o.model,
		DeadlineMs: float64(o.deadline.Microseconds()) / 1000,
		MinGoodput: 1,
	}
	gated := func(s sloScenario) {
		rep.Scenarios = append(rep.Scenarios, s)
		if s.Goodput < rep.MinGoodput {
			rep.MinGoodput = s.Goodput
		}
	}

	// --- Scenario 1: baseline — a healthy fleet at the target rate. ---
	gated(driveSLO("baseline", fleet.base, o, o.rps, bodies))

	// --- Scenario 2: latency fault — the model's primary replica slows
	// by half the deadline; the hedge must carry goodput through the
	// secondary. ---
	slowed := fleet.replica(primary)
	slowed.Slow(o.deadline / 2)
	latency := driveSLO("latency-fault", fleet.base, o, o.rps, bodies)
	slowed.Slow(0)
	latency.Injected = slowed.slowed.Load()
	gated(latency)

	// --- Scenario 3: overload — every batch stalls 25ms (fleet capacity
	// ≈ 80/s per replica) and the offered rate doubles; the fleet must
	// divide the burst into honest 200s and 429s, nothing worse. ---
	faultinject.Arm(serve.FaultBatch, faultinject.Fault{Delay: 25 * time.Millisecond})
	overload := driveSLO("overload-2x", fleet.base, o, 2*o.rps, bodies)
	_, fired := faultinject.Hits(serve.FaultBatch)
	overload.Injected = uint64(fired)
	rep.Scenarios = append(rep.Scenarios, overload) // shed-gated, not goodput-gated
	faultinject.Reset()

	// --- Scenario 4: replica kill — the primary goes away mid-run;
	// health reroutes while hedged failover covers the gap. ---
	killed := driveKill("replica-kill", fleet, o, bodies, primary)
	gated(killed)

	rep.WastedWork = fleet.wasted()
	rep.Evicted = fleet.evicted()

	rep.Pass = true
	var fail []string
	if rep.MinGoodput < o.sloMinGoodput {
		rep.Pass = false
		fail = append(fail, fmt.Sprintf("goodput %.3f < required %.3f", rep.MinGoodput, o.sloMinGoodput))
	}
	if overload.Errors > 0 {
		rep.Pass = false
		fail = append(fail, fmt.Sprintf("overload produced %d errors; shed load must be 429, never 5xx", overload.Errors))
	}
	if latency.Injected == 0 {
		rep.Pass = false
		fail = append(fail, "latency-fault injected no delay: the slowed primary never saw a /v1/score request")
	}
	if overload.Injected == 0 {
		rep.Pass = false
		fail = append(fail, "overload-2x never fired serve.FaultBatch: no batch stalled")
	}
	if overload.Shed == 0 {
		rep.Pass = false
		fail = append(fail, "overload shed nothing — the burst never exceeded capacity, so the scenario proves nothing")
	}
	if o.sloMaxWasted >= 0 && rep.WastedWork > uint64(o.sloMaxWasted) {
		rep.Pass = false
		fail = append(fail, fmt.Sprintf("wasted work %d > allowed %d: the fleet scored for callers that had given up", rep.WastedWork, o.sloMaxWasted))
	}

	var w io.Writer = os.Stdout
	if o.out != "-" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	for _, s := range rep.Scenarios {
		fmt.Fprintf(os.Stderr,
			"mfodload: %-13s %4d req, %4d ok, %3d shed, %2d err, %2d late, goodput=%.3f p99=%.1fms injected=%d\n",
			s.Name, s.Requests, s.OK, s.Shed, s.Errors, s.DeadlineMisses, s.Goodput, s.P99Ms, s.Injected)
	}
	fmt.Fprintf(os.Stderr, "mfodload: wasted=%d evicted=%d minGoodput=%.3f pass=%v\n",
		rep.WastedWork, rep.Evicted, rep.MinGoodput, rep.Pass)
	if !rep.Pass {
		for _, f := range fail {
			fmt.Fprintln(os.Stderr, "mfodload: SLO FAIL:", f)
		}
		return errors.New("slo gate failed")
	}
	return nil
}

// primaryOf asks the gate which replica owns the model.
func primaryOf(base, model string) (string, error) {
	resp, err := http.Get(base + "/v1/topology?route=" + model)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var doc struct {
		Route []string `json:"route"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	if len(doc.Route) == 0 {
		return "", fmt.Errorf("gate reported no route for model %q", model)
	}
	return doc.Route[0], nil
}

// driveSLO paces deadline-carrying requests at rps for the scenario
// duration and scores the outcomes.
func driveSLO(name, base string, o loadOptions, rps float64, bodies [][]byte) sloScenario {
	return driveScripted(name, base, o, rps, bodies, nil)
}

// driveKill is driveSLO with the named replica killed one quarter into
// the run — enough traffic before the kill to prove continuity across
// it.
func driveKill(name string, fleet *selfFleet, o loadOptions, bodies [][]byte, victim string) sloScenario {
	var once sync.Once
	killAt := time.Now().Add(o.duration / 4)
	return driveScripted(name, fleet.base, o, o.rps, bodies, func(now time.Time) {
		if now.After(killAt) {
			once.Do(func() { fleet.replica(victim).Kill() })
		}
	})
}

// driveScripted is the scenario request loop: paced like drive(), but
// every request carries the client deadline both as a context and as
// the propagated header, and outcomes are scored against that deadline.
// The optional tick hook runs on every pacing tick (scripted chaos).
func driveScripted(name, base string, o loadOptions, rps float64, bodies [][]byte, tick func(time.Time)) sloScenario {
	var (
		mu        sync.Mutex
		latencies []float64
		s         = sloScenario{Name: name}
	)
	client := &http.Client{}
	target := base + "/v1/score?model=" + url.QueryEscape(o.model)
	contentType := contentTypeFor(o.codec)
	deadlineMs := strconv.FormatInt(o.deadline.Milliseconds(), 10)
	sem := make(chan struct{}, o.concurrency)
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / rps)
	start := time.Now()
	end := start.Add(o.duration)
	for i, next := 0, start; next.Before(end); i, next = i+1, next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if tick != nil {
			tick(time.Now())
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			body := bodies[i%len(bodies)]
			//mfodlint:allow poolmisuse load-generator request goroutine: bounded by the concurrency semaphore and joined via the WaitGroup before the scenario is scored
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				code, err := postDeadline(client, target, contentType, body, o.deadline, deadlineMs)
				elapsed := time.Since(t0)
				ms := float64(elapsed.Microseconds()) / 1000
				mu.Lock()
				defer mu.Unlock()
				s.Requests++
				latencies = append(latencies, ms)
				switch {
				case err != nil && errors.Is(err, context.DeadlineExceeded):
					s.DeadlineMisses++
					s.Errors++
				case err != nil:
					s.Errors++
				case code == http.StatusOK && elapsed <= o.deadline:
					s.OK++
				case code == http.StatusOK:
					// Answered, but after the caller walked away.
					s.DeadlineMisses++
					s.Errors++
				case code == http.StatusTooManyRequests:
					s.Shed++
				default:
					s.Errors++
				}
			}()
		default:
			// Client-side concurrency exhausted: the fleet is holding
			// requests past the pacing interval. Count it against goodput's
			// denominator — the request the script wanted to send never did.
			mu.Lock()
			s.Requests++
			s.Errors++
			mu.Unlock()
		}
	}
	wg.Wait()

	if s.Requests > 0 {
		s.Goodput = float64(s.OK) / float64(s.Requests)
		s.ShedRate = float64(s.Shed) / float64(s.Requests)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		s.P99Ms = percentile(latencies, 0.99)
		s.P99WithinDeadline = s.P99Ms <= float64(o.deadline.Microseconds())/1000
	}
	return s
}

// postDeadline sends one scoring request under the client deadline,
// propagated downstream via the deadline header.
func postDeadline(client *http.Client, url, contentType string, body []byte, deadline time.Duration, deadlineMs string) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(resilience.DeadlineHeader, deadlineMs)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	return resp.StatusCode, nil
}
