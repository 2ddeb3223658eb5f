package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRunArgumentErrors(t *testing.T) {
	if err := run(loadOptions{codec: "carrier-pigeon"}); err == nil {
		t.Fatal("bad codec must fail")
	}
	if err := run(loadOptions{codec: "wire", rps: 0, duration: time.Second, concurrency: 1, batch: 1}); err == nil {
		t.Fatal("zero rps must fail")
	}
	o := loadOptions{codec: "wire", rps: 10, duration: time.Second, concurrency: 1, batch: 1}
	if err := run(o); err == nil {
		t.Fatal("neither -url nor -self must fail")
	}
	for _, mode := range []loadOptions{{slo: true}, {jobs: true}, {streams: 4}} {
		m := o
		m.slo, m.jobs, m.streams = mode.slo, mode.jobs, mode.streams
		if err := run(m); err == nil {
			t.Fatalf("%+v without -self must fail", mode)
		}
	}
	o.url = "http://127.0.0.1:1"
	if err := run(o); err == nil {
		t.Fatal("-url without -replay must fail")
	}
	o.replay = filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(o.replay, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(o); err == nil {
		t.Fatal("garbage replay must fail")
	}
}

// runReport runs o with its report written under the test's temp dir
// and returns the decoded report; the run must pass.
func runReport(t *testing.T, o loadOptions) report {
	t.Helper()
	o.out = filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v: %s", err, raw)
	}
	if !rep.Pass || len(rep.Failures) > 0 {
		t.Fatalf("report does not pass: %s", raw)
	}
	return rep
}

// fleetOptions are the hermetic-fleet defaults the mode tests share.
func fleetOptions() loadOptions {
	return loadOptions{selfFleet: 2, model: "ecg", codec: "wire", rps: 30,
		duration: 1500 * time.Millisecond, concurrency: 16, batch: 4}
}

// TestSelfFleetBench runs the hermetic mode end to end: boot replicas
// and gate in-process, drive a short load, and check the report file.
func TestSelfFleetBench(t *testing.T) {
	rep := runReport(t, fleetOptions())
	s := rep.Scenarios[0]
	if s.Requests == 0 || s.Errors != 0 {
		t.Fatalf("scenario: %d requests, %d errors: %+v", s.Requests, s.Errors, s)
	}
	if l := s.LatencyMs; l.P50 <= 0 || l.P99 < l.P50 || l.P999 < l.P99 {
		t.Fatalf("latency percentiles not ordered: %+v", l)
	}
	if s.AchievedRPS <= 0 {
		t.Fatalf("achieved rps = %v", s.AchievedRPS)
	}
	// The acceptance bar this report exists to watch: binary wire bodies
	// at no more than half the JSON cost for the same curves.
	bytesPer, _ := rep.Totals["bytesPerRequest"].(map[string]any)
	wireBytes, _ := bytesPer["wire"].(float64)
	jsonBytes, _ := bytesPer["json"].(float64)
	if wireBytes <= 0 || 2*wireBytes > jsonBytes {
		t.Fatalf("wire bytes %v not <= 50%% of json bytes %v", wireBytes, jsonBytes)
	}
}

// TestSLOMode runs the four chaos scenarios at test size and checks
// that every fault provably fired.
func TestSLOMode(t *testing.T) {
	o := fleetOptions()
	o.selfFleet, o.rps, o.duration, o.concurrency = 3, 100, 500*time.Millisecond, 32
	o.slo, o.deadline, o.sloMinGoodput, o.sloMaxWasted = true, 500*time.Millisecond, 0.9, 0
	rep := runReport(t, o)
	byName := map[string]scenario{}
	for _, s := range rep.Scenarios {
		byName[s.Name] = s
	}
	for _, name := range []string{"latency-fault", "overload-2x"} {
		if byName[name].Injected == 0 {
			t.Errorf("%s injected nothing: %+v", name, byName[name])
		}
	}
	if got := byName["replica-kill"].Injected; got != 1 {
		t.Errorf("replica-kill injected %d, want 1", got)
	}
	if byName["overload-2x"].Shed == 0 {
		t.Errorf("overload shed nothing: %+v", byName["overload-2x"])
	}
	for _, key := range []string{"wastedWork", "cancelledWork", "minGoodput"} {
		if _, ok := rep.Totals[key]; !ok {
			t.Errorf("totals miss %s: %v", key, rep.Totals)
		}
	}
}

// TestJudgeOverload holds the overload verdict on synthetic scenarios:
// skipped ticks alone pass, while an error, a late answer, or a send rate
// at or below the single-rate target fails.
func TestJudgeOverload(t *testing.T) {
	const rps = 100
	healthy := scenario{Name: "overload-2x", TargetRPS: 2 * rps, ElapsedS: 1, Requests: 180, OK: 120, Shed: 60,
		Skipped: 20, AchievedRPS: 180, Injected: 40}
	for _, c := range []struct {
		name string
		edit func(*scenario)
		pass bool
	}{
		{"skipped ticks, no errors", func(*scenario) {}, true},
		{"one error", func(s *scenario) { s.Errors = 1 }, false},
		{"one late answer", func(s *scenario) { s.Late = 1 }, false},
		{"sent at the single rate", func(s *scenario) { s.Requests, s.Skipped, s.AchievedRPS = rps, 100, rps }, false},
		{"sent below the single rate", func(s *scenario) { s.Requests, s.Skipped, s.AchievedRPS = 80, 120, 80 }, false},
		{"nothing shed", func(s *scenario) { s.Shed = 0 }, false},
		{"fault never fired", func(s *scenario) { s.Injected = 0 }, false},
	} {
		s := healthy
		c.edit(&s)
		rep := &report{}
		judgeOverload(rep, s, rps)
		if pass := len(rep.Failures) == 0; pass != c.pass {
			t.Errorf("%s: pass = %v, want %v (failures %q)", c.name, pass, c.pass, rep.Failures)
		}
	}
}

// TestJobsMode runs bulk jobs beside interactive traffic at test size.
func TestJobsMode(t *testing.T) {
	o := fleetOptions()
	o.duration = 200 * time.Millisecond
	o.jobs, o.jobsSamples, o.jobsChunk = true, 96, 32
	rep := runReport(t, o)
	if rep.Totals["bitwiseMatch"] != true {
		t.Fatalf("job scores not bitwise identical: %v", rep.Totals)
	}
	if bulk := rep.Scenarios[0]; bulk.Name != "bulk" || bulk.OK == 0 || bulk.Errors != 0 {
		t.Fatalf("bulk scenario: %+v", bulk)
	}
	if heap, ok := rep.Totals["heapEndMB"].(float64); !ok || heap <= 0 {
		t.Fatalf("totals carry no live heap: %v", rep.Totals)
	}
}

// TestStreamsMode completes a handful of live streams at test size.
func TestStreamsMode(t *testing.T) {
	o := fleetOptions()
	// A window as wide as the stream count: no tick can be skipped.
	o.rps, o.streams, o.streamChunk, o.concurrency = 100, 8, 10, 8
	rep := runReport(t, o)
	if rep.Totals["bitwiseMatch"] != true {
		t.Fatalf("final stream scores off the batch path: %v", rep.Totals)
	}
	if s := rep.Scenarios[0]; s.OK != o.streams || s.Errors != 0 {
		t.Fatalf("streams scenario: %+v", s)
	}
}
