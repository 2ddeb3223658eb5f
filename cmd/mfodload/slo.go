// SLO chaos-harness mode: scripted failure scenarios over the hermetic
// -self fleet, each paced with a real client deadline propagated via
// X-Mfod-Deadline-Ms, scored on goodput (200s inside the deadline),
// shed (honest 429s) and wasted work (fleet answers finished after their
// deadline). The run writes BENCH_slo.json and fails when goodput drops
// below -slo-min-goodput, when overload produces anything worse than a
// 429 or is never offered above the single rate, when a fault never
// fired, or when wasted work exceeds
// -slo-max-wasted — the CI gate for the deadline/overload machinery.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

func runSLO(o loadOptions) (*report, error) {
	if o.deadline <= 0 {
		return nil, errors.New("-deadline must be positive")
	}
	o.duration = min(o.duration, 10*time.Second) // per scenario; four scenarios run
	// Small pools so overload actually overflows: 2 workers and a queue
	// shallow enough that its worst-case wait stays far inside the client
	// deadline (8 jobs × the injected 25ms ≪ deadline), keeping
	// "admitted" and "answerable in time" the same thing.
	popt := serve.PoolOptions{Workers: 2, QueueCap: 8}
	fleet, err := bootSelfFleet(o.selfFleet, o.model, popt, 100*time.Millisecond)
	if err != nil {
		return nil, err
	}
	// The request codec follows -codec on every leg of every scenario —
	// the SLO machinery must hold for JSON clients exactly as for wire.
	bodies, _, err := buildBodies(fleet.d, 1, o.codec)
	if err != nil {
		return nil, err
	}
	primaryName, err := primaryOf(fleet.base, o.model)
	if err != nil {
		return nil, err
	}
	primary := fleet.replica(primaryName)
	if primary == nil {
		return nil, fmt.Errorf("topology routes %q to unknown replica %q", o.model, primaryName)
	}
	fmt.Fprintf(os.Stderr, "mfodload: slo run, fleet=%d deadline=%v primary=%s\n",
		o.selfFleet, o.deadline, primaryName)

	client := &http.Client{}
	target := scoreURL(fleet.base, o.model)
	scripted := func(name string, rps float64, tick func(int)) scenario {
		ctx, cancel := context.WithTimeout(context.Background(), o.duration)
		defer cancel()
		return pace(ctx, name, rps, o.concurrency, tick, func(i int) outcome {
			reqCtx, cancel := context.WithTimeout(context.Background(), o.deadline)
			defer cancel()
			return post(reqCtx, client, target, contentTypeFor(o.codec), bodies[i%len(bodies)])
		})
	}

	// Baseline: a healthy fleet at the target rate.
	baseline := scripted("baseline", o.rps, nil)

	// Latency fault: the model's primary slows by half the deadline; the
	// hedge must carry goodput through the secondary.
	primary.Slow(o.deadline / 2)
	latencyFault := scripted("latency-fault", o.rps, nil)
	primary.Slow(0)
	latencyFault.Injected = primary.slowed.Load()

	// Overload: every job stalls 25ms (fleet capacity ≈ 80/s per
	// replica) and the offered rate doubles; the fleet must divide the
	// burst into honest 200s and 429s, nothing worse.
	faultinject.Arm(serve.FaultBatch, faultinject.Fault{Delay: 25 * time.Millisecond})
	overload := scripted("overload-2x", 2*o.rps, nil)
	_, fired := faultinject.Hits(serve.FaultBatch)
	overload.Injected = uint64(fired)
	faultinject.Reset()

	// Replica kill: the primary goes away one quarter into the run —
	// enough traffic before the kill to prove continuity across it —
	// while health reroutes and hedged failover covers the gap.
	killAt := time.Now().Add(o.duration / 4)
	var kills uint64 // written and read only on the pacing goroutine
	kill := scripted("replica-kill", o.rps, func(int) {
		if kills == 0 && time.Now().After(killAt) {
			primary.Kill()
			kills++
		}
	})
	kill.Injected = kills

	minGoodput := min(baseline.Goodput, latencyFault.Goodput, kill.Goodput)
	wasted := fleet.poolTotal((*serve.Pool).Wasted)
	rep := &report{Mode: "slo", Target: fleet.base, Fleet: o.selfFleet, Model: o.model, Codec: o.codec,
		Scenarios: []scenario{baseline, latencyFault, overload, kill},
		Totals: map[string]any{
			"deadlineMs": ms(o.deadline),
			"minGoodput": minGoodput,
			// Jobs scored to completion after their own deadline: the
			// deadline machinery exists to hold this at zero.
			"wastedWork": wasted,
			// Jobs scored for a caller that cancelled before the deadline —
			// a hedge loser, a disconnect: the duplicate cost hedging accepts.
			"cancelledWork": fleet.poolTotal((*serve.Pool).Cancelled),
			"evicted":       fleet.poolTotal((*serve.Pool).Evicted),
		},
	}
	rep.failIf(minGoodput < o.sloMinGoodput, "goodput %.3f < required %.3f", minGoodput, o.sloMinGoodput)
	rep.failIf(latencyFault.Injected == 0, "latency-fault injected no delay: the slowed primary never saw a /v1/score request")
	judgeOverload(rep, overload, o.rps)
	rep.failIf(kill.Injected != 1, "replica-kill never killed the primary")
	rep.failIf(o.sloMaxWasted >= 0 && wasted > uint64(o.sloMaxWasted),
		"wasted work %d > allowed %d: the fleet scored jobs past their deadline", wasted, o.sloMaxWasted)
	return rep, nil
}

// judgeOverload records the overload-2x verdict: shed load must be
// 429s, so one error or late answer fails it, and the scenario proves
// overload only if the fault fired, the fleet shed something and the
// load generator sent more than the single-rate target rps. Skipped
// ticks (every in-flight slot busy while admitted requests wait in the
// queue) are the generator's shortfall, not the fleet's: they count
// only through that offered-load proof.
func judgeOverload(rep *report, s scenario, rps float64) {
	rep.failIf(s.Errors+s.Late > 0,
		"overload produced %d errors and %d late answers; shed load must be 429, never worse", s.Errors, s.Late)
	rep.failIf(s.Injected == 0, "overload-2x never fired serve.FaultBatch: no batch stalled")
	rep.failIf(s.Shed == 0, "overload shed nothing — the burst never exceeded capacity, so the scenario proves nothing")
	rep.failIf(s.AchievedRPS <= rps,
		"overload sent %.1f requests/s (%d ticks skipped), not above the single-rate target %.0f/s: the doubling never happened, so the scenario proves nothing",
		s.AchievedRPS, s.Skipped, rps)
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
