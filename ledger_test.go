// Score ledger: the bitwise layer under the 1e-12 goldens. The scores
// every Fig. 3 and detector-ablation method returns through
// eval.RunExperiment, at 3 repetitions, are hashed per (experiment,
// method, contamination, repetition); the mapping, basis, depth-issues,
// Dir.out-decomposition and ensemble runners are pinned by the bits of
// each row's values; one saved Fig. 3 model and the stream golden
// trajectories are hashed whole. testdata/score_ledger.json records
// the Go release that wrote it, and the ledger compares exactly only on
// amd64 under that release: elsewhere it skips, since arm64 fuses
// multiply-adds and another release may compile the float kernels
// differently (DESIGN.md §6); the 1e-12 goldens stay the portable
// check. Regenerate after an intentional numeric change with:
//
//	go test -run TestScoreLedger -update .    (make ledger)
package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fda"
	"repro/internal/iforest"
	"repro/internal/stats"
)

const ledgerPath = "testdata/score_ledger.json"

// ledgerSeed and ledgerReps are mfodbench's default seed at the
// repetition count the ledger runs every experiment with.
const (
	ledgerSeed = 1
	ledgerReps = 3
)

// ledger is the file's shape: the release and architecture that wrote
// it, and one value per entry name.
type ledger struct {
	Go      string            `json:"go"`
	GOARCH  string            `json:"goarch"`
	Entries map[string]string `json:"entries"`
}

// digest is the SHA-256 of the float64 bits of xs, in order.
func digest(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bits spells out the float64 bits of a row's values, so a moved row
// shows which value moved.
func bits(xs ...float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return strings.Join(parts, " ")
}

// recorder wraps an eval.Method and keeps each score vector it
// returns, keyed by the seed the experiment runner handed it.
type recorder struct {
	eval.Method
	mu     sync.Mutex
	scores map[int64][]float64
}

func (r *recorder) Run(train, test fda.Dataset, seed int64) ([]float64, error) {
	scores, err := r.Method.Run(train, test, seed)
	if err == nil {
		r.mu.Lock()
		r.scores[seed] = scores
		r.mu.Unlock()
	}
	return scores, err
}

// recordExperiment runs methods over the Fig. 3 protocol through
// eval.RunExperiment and adds one digest per (method, contamination,
// repetition) under exp. A repetition's method seed is the one the
// runner derives from (contamination, repetition); a score vector
// recorded under no expected seed fails the ledger.
func recordExperiment(t *testing.T, out map[string]string, exp string, d fda.Dataset, methods []eval.Method) {
	t.Helper()
	recs := make([]*recorder, len(methods))
	wrapped := make([]eval.Method, len(methods))
	for i, m := range methods {
		recs[i] = &recorder{Method: m, scores: map[int64][]float64{}}
		wrapped[i] = recs[i]
	}
	conds := make([]eval.Condition, len(experiments.Fig3Contaminations))
	for i, c := range experiments.Fig3Contaminations {
		conds[i] = eval.Condition{Contamination: c, TrainSize: d.Len() / 2}
	}
	if _, err := eval.RunExperiment(d, wrapped, conds, eval.ExperimentOptions{Repetitions: ledgerReps, Seed: ledgerSeed}); err != nil {
		t.Fatalf("%s: %v", exp, err)
	}
	for _, r := range recs {
		for _, cond := range conds {
			for rep := 0; rep < ledgerReps; rep++ {
				name := fmt.Sprintf("%s/%s/c=%.2f/rep=%d", exp, r.Name(), cond.Contamination, rep)
				seed := stats.SplitSeed(ledgerSeed, rep*10007+int(cond.Contamination*1000))
				scores, ok := r.scores[seed]
				if !ok {
					out[name] = "no scores under the derived seed"
					continue
				}
				out[name] = digest(scores)
				delete(r.scores, seed)
			}
		}
		if len(r.scores) > 0 {
			t.Errorf("%s/%s: %d score vectors under seeds the ledger does not derive", exp, r.Name(), len(r.scores))
		}
	}
}

// computeLedger runs every pinned experiment and returns the entries.
func computeLedger(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	fig3, err := experiments.Fig3Dataset(0, ledgerSeed)
	if err != nil {
		t.Fatal(err)
	}
	recordExperiment(t, out, "fig3", fig3, experiments.Fig3Methods())
	recordExperiment(t, out, "ablation-detector", fig3, experiments.DetectorAblationMethods())

	opt := experiments.AblationOptions{Repetitions: ledgerReps, Seed: ledgerSeed}
	maps, err := experiments.RunMappingAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range maps {
		out[fmt.Sprintf("ablation-map/%s/%s", r.Class, r.Mapping)] = bits(r.MeanAUC, r.StdAUC)
	}
	basis, err := experiments.RunBasisAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range basis {
		out[fmt.Sprintf("ablation-basis/L=%d,lambda=%g", r.Dim, r.Lambda)] = bits(r.MeanAUC, r.StdAUC)
	}
	issues, err := experiments.RunDepthIssues(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range issues {
		out[fmt.Sprintf("depth-issues/%s/%s", r.Class, r.Method)] = bits(r.MeanAUC, r.StdAUC)
	}
	decomp, err := experiments.RunDirOutDecomposition(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range decomp {
		out[fmt.Sprintf("dirout-decomp/%s/%s", r.Class, r.Group)] = bits(r.MedianMO2, r.MedianVO)
	}
	ens, err := experiments.RunEnsemble(opt)
	if err != nil {
		t.Fatal(err)
	}
	out["ensemble/single"] = bits(ens.SingleAUC)
	out["ensemble/ensemble"] = bits(ens.EnsembleAUC)
	for name, auc := range ens.MemberAUC {
		out["ensemble/member/"+name] = bits(auc)
	}

	// One saved Fig. 3 model, whole: the bytes mfodserve loads.
	pipe := experiments.CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: ledgerSeed}))
	if err := pipe.Fit(fig3); err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := pipe.SaveJSON(&model); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(model.Bytes())
	out["model/fig3-ifor"] = hex.EncodeToString(sum[:])

	var traj []float64
	for _, curve := range goldenStreamScores(t) {
		traj = append(traj, curve...)
	}
	out["stream/golden-trajectories"] = digest(traj)
	return out
}

func TestScoreLedger(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the score ledger compares on amd64 only, and this is %s: other platforms may round differently (arm64 fuses multiply-adds, DESIGN.md §6)", runtime.GOARCH)
	}
	var want ledger
	if !*updateGolden {
		raw, err := os.ReadFile(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", ledgerPath, err)
		}
		if want.Go != runtime.Version() {
			t.Skipf("%s was written under %s, and this is %s, which may compile the float kernels differently", ledgerPath, want.Go, runtime.Version())
		}
	}
	start := time.Now()
	got := computeLedger(t)
	t.Logf("%d entries in %v", len(got), time.Since(start).Round(time.Millisecond))
	if *updateGolden {
		blob, err := json.MarshalIndent(ledger{Go: runtime.Version(), GOARCH: runtime.GOARCH, Entries: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", ledgerPath)
		return
	}
	names := map[string]bool{}
	for n := range want.Entries {
		names[n] = true
	}
	for n := range got {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	moved := 0
	for _, n := range sorted {
		w, inFile := want.Entries[n]
		g, computed := got[n]
		switch {
		case !computed:
			t.Errorf("%s: in the ledger, no longer computed", n)
		case !inFile:
			t.Errorf("%s: computed, not in the ledger", n)
		case g != w:
			t.Errorf("%s moved:\n got %s\nwant %s", n, g, w)
		default:
			continue
		}
		moved++
	}
	if moved > 0 {
		t.Errorf("%d of %d ledger entries moved; if the change is meant, regenerate with: go test -run TestScoreLedger -update .", moved, len(sorted))
	}
}
