package eval

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fda"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Method is anything that can be trained unsupervised on a functional
// dataset and produce outlyingness scores for held-out samples, where
// higher means more outlying. Both the paper's pipelines (smooth → map →
// detect) and the depth baselines adapt to this interface.
type Method interface {
	// Name identifies the method in result tables.
	Name() string
	// Run fits on train (labels must be ignored) and returns one score per
	// test sample. seed makes stochastic methods reproducible.
	Run(train, test fda.Dataset, seed int64) ([]float64, error)
}

// Condition is one point of the experimental grid: a contamination level
// and a training-set size.
type Condition struct {
	Contamination float64
	TrainSize     int
}

// Summary aggregates the AUCs of one method at one condition over all
// repetitions, the quantity Fig. 3 plots.
type Summary struct {
	Method        string
	Contamination float64
	TrainSize     int
	MeanAUC       float64
	StdAUC        float64
	AUCs          []float64
}

// ExperimentOptions configures RunExperiment.
type ExperimentOptions struct {
	// Repetitions is the number of random splits per condition; 0 means 50
	// (the paper's count).
	Repetitions int
	// Seed drives the split and method randomness; repetitions derive
	// independent sub-seeds so results are identical regardless of the
	// parallel schedule.
	Seed int64
	// Parallel bounds the worker pool; 0 means GOMAXPROCS.
	Parallel int
}

// RunExperiment evaluates every method under every condition over repeated
// random splits, exactly the protocol of Sec. 4.1: per repetition a fresh
// contaminated training set is drawn, each method fits on it (unlabeled)
// and scores the test set, and the test AUC is recorded. Repetitions run
// concurrently on a bounded worker pool.
//
// Summaries are ordered by condition then method, matching the input
// order. Any repetition error aborts the run.
func RunExperiment(d fda.Dataset, methods []Method, conds []Condition, opt ExperimentOptions) ([]Summary, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Labels == nil {
		return nil, fmt.Errorf("eval: experiment requires labels: %w", ErrEval)
	}
	if len(methods) == 0 || len(conds) == 0 {
		return nil, fmt.Errorf("eval: no methods or conditions: %w", ErrEval)
	}
	reps := opt.Repetitions
	if reps <= 0 {
		reps = 50
	}
	// One job per (condition, repetition), condition-major so the result
	// block of condition ci is jobs[ci*reps : (ci+1)*reps]. Jobs run on
	// the shared bounded pool and write back by index, so the run is
	// reproducible for every worker count; errors surface in the same
	// order a sequential loop would report them.
	type job struct {
		cond Condition
		rep  int
	}
	jobs := make([]job, 0, len(conds)*reps)
	for _, cond := range conds {
		for r := 0; r < reps; r++ {
			jobs = append(jobs, job{cond: cond, rep: r})
		}
	}
	aucs, err := parallel.Map(len(jobs), opt.Parallel, func(i int) (map[string]float64, error) {
		jb := jobs[i]
		// Derive a reproducible seed from (condition, repetition).
		stream := jb.rep*10007 + int(jb.cond.Contamination*1000)
		rng := stats.NewRand(opt.Seed, stream)
		sp, err := MakeSplit(d.Labels, jb.cond.TrainSize, jb.cond.Contamination, rng)
		if err != nil {
			return nil, fmt.Errorf("eval: c=%.2f rep %d: %w", jb.cond.Contamination, jb.rep, err)
		}
		train, test := sp.Apply(d)
		auc := make(map[string]float64, len(methods))
		for _, m := range methods {
			scores, err := m.Run(train, test, stats.SplitSeed(opt.Seed, stream))
			if err != nil {
				return nil, fmt.Errorf("eval: %s c=%.2f rep %d: %w", m.Name(), jb.cond.Contamination, jb.rep, err)
			}
			a, err := AUC(scores, test.Labels)
			if err != nil {
				return nil, fmt.Errorf("eval: %s c=%.2f rep %d: %w", m.Name(), jb.cond.Contamination, jb.rep, err)
			}
			auc[m.Name()] = a
		}
		return auc, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Summary
	for ci, cond := range conds {
		for _, m := range methods {
			vals := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				if v, ok := aucs[ci*reps+r][m.Name()]; ok {
					vals = append(vals, v)
				}
			}
			sort.Float64s(vals)
			s := Summary{
				Method:        m.Name(),
				Contamination: cond.Contamination,
				TrainSize:     cond.TrainSize,
				AUCs:          vals,
			}
			if len(vals) > 0 {
				s.MeanAUC = stats.Mean(vals)
				if len(vals) > 1 {
					s.StdAUC = stats.StdDev(vals)
				}
			} else {
				s.MeanAUC = math.NaN()
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// FormatTable renders summaries as a fixed-width text table with one row
// per (condition, method), the textual equivalent of Fig. 3.
func FormatTable(summaries []Summary) string {
	out := fmt.Sprintf("%-24s %6s %6s %10s %10s %6s\n", "method", "c", "nTrain", "meanAUC", "stdAUC", "reps")
	for _, s := range summaries {
		out += fmt.Sprintf("%-24s %6.2f %6d %10.4f %10.4f %6d\n",
			s.Method, s.Contamination, s.TrainSize, s.MeanAUC, s.StdAUC, len(s.AUCs))
	}
	return out
}
