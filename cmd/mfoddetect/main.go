// Command mfoddetect runs the paper's full pipeline — penalized B-spline
// smoothing, geometric mapping, multivariate outlier detection — on curves
// read from CSV (the long format of cmd/mfodgen) and prints one
// outlyingness score per sample, highest first.
//
// Usage:
//
//	mfoddetect -in curves.csv [-mapping curvature|log-curvature|speed|…]
//	           [-detector ifor|ocsvm|lof|knn] [-train train.csv]
//	           [-top 10] [-seed 1]
//
// Without -train the model is fitted on the scored data itself
// (transductive use); with -train it is fitted on the training file and
// applied to -in. When the input carries labels, the test AUC is printed
// as a footer.
//
// With -remote the curves are not scored locally at all: they are POSTed
// to a running mfodserve or mfodgate instance through internal/client,
// with transient failures (connection errors, 429, 5xx) retried under
// exponential backoff and a circuit breaker:
//
//	mfoddetect -in curves.csv -remote http://localhost:8080 -remote-model ecg
//	           [-remote-attempts 4] [-remote-backoff 100ms] [-remote-breaker 5]
//	           [-wire] [-async [-chunk 256]]
//
// -wire sends the curves as the versioned binary frame of internal/wire
// instead of JSON — the codec mfodgate speaks upstream — cutting request
// bytes roughly in half; scores are bitwise identical either way.
//
// -async submits the curves as a bulk-scoring job (POST /v1/jobs) and
// streams the results back over the resumable NDJSON endpoint instead of
// holding one synchronous request open — the right mode for large curve
// sets, and against a gate the job is scatter/gathered across the whole
// fleet. Scores are bitwise identical to the synchronous path.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/eval"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/lof"
)

// options collects every flag; run dispatches on them so tests can drive
// the binary without a process boundary.
type options struct {
	in       string
	train    string
	mapping  string
	detector string
	saveTo   string
	model    string
	top      int
	explain  int
	seed     int64

	// Remote mode: score against a running mfodserve instead of locally.
	remote         string // base URL; empty means local scoring
	remoteModel    string // model name registered on the server
	remoteAttempts int
	remoteBackoff  time.Duration
	remoteBreaker  int
	remoteTimeout  time.Duration
	remoteWire     bool // send the binary wire frame instead of JSON
	async          bool // bulk-scoring job instead of one synchronous request
	chunk          int  // chunk-size override for -async (0 = server default)
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "CSV of curves to score (required)")
	flag.StringVar(&o.train, "train", "", "optional CSV to fit on (default: fit on -in)")
	flag.StringVar(&o.mapping, "mapping", "log-curvature", "mapping function (see geometry registry)")
	flag.StringVar(&o.detector, "detector", "ifor", "detector: ifor, ocsvm, lof, knn")
	flag.IntVar(&o.top, "top", 0, "print only the top-k most outlying samples (0 = all)")
	flag.IntVar(&o.explain, "explain", 0, "for each printed sample, show the k grid regions that deviate most")
	flag.StringVar(&o.saveTo, "save", "", "write the fitted pipeline to this JSON file")
	flag.StringVar(&o.model, "model", "", "score with a previously saved pipeline instead of fitting")
	flag.Int64Var(&o.seed, "seed", 1, "random seed for stochastic detectors")
	flag.StringVar(&o.remote, "remote", "", "base URL of an mfodserve instance; score remotely instead of fitting locally")
	flag.StringVar(&o.remoteModel, "remote-model", "", "model name on the remote server (required with -remote)")
	flag.IntVar(&o.remoteAttempts, "remote-attempts", 4, "total tries per remote request (transient failures retried)")
	flag.DurationVar(&o.remoteBackoff, "remote-backoff", 100*time.Millisecond, "base delay between remote retries (grows exponentially)")
	flag.IntVar(&o.remoteBreaker, "remote-breaker", 5, "consecutive remote failures that open the circuit breaker")
	flag.DurationVar(&o.remoteTimeout, "remote-timeout", 30*time.Second, "per-attempt HTTP timeout for remote scoring")
	flag.BoolVar(&o.remoteWire, "wire", false, "send curves as the binary wire codec instead of JSON (with -remote)")
	flag.BoolVar(&o.async, "async", false, "submit a bulk-scoring job and stream results instead of one synchronous request (with -remote)")
	flag.IntVar(&o.chunk, "chunk", 0, "chunk size for -async jobs (0 = server default)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mfoddetect:", err)
		os.Exit(1)
	}
}

func buildDetector(name string, seed int64) (detector.Spec, error) {
	switch name {
	case "ifor":
		return iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed}), nil
	case "ocsvm":
		return core.TunedOCSVM{Seed: seed}, nil
	case "lof":
		return lof.Options{}, nil
	case "knn":
		return lof.KNN{}, nil
	default:
		return nil, fmt.Errorf("unknown detector %q", name)
	}
}

func readCSVFile(path string) (fda.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return fda.Dataset{}, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

// expLine is one printable explanation row (grid position, z-deviation).
type expLine struct {
	t, z float64
}

// report prints scores highest-first with optional labels and per-sample
// explanation lines; explain may be nil.
func report(scores []float64, labels []int, top int, explain func(i int) ([]expLine, error)) error {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if top <= 0 || top > len(idx) {
		top = len(idx)
	}
	fmt.Printf("%-8s %-12s %s\n", "sample", "score", "label")
	for _, i := range idx[:top] {
		label := "-"
		if labels != nil {
			label = fmt.Sprintf("%d", labels[i])
		}
		fmt.Printf("%-8d %-12.6f %s\n", i, scores[i], label)
		if explain != nil {
			lines, err := explain(i)
			if err != nil {
				return err
			}
			for _, e := range lines {
				fmt.Printf("         t=%-8.3f z=%+.2f\n", e.t, e.z)
			}
		}
	}
	return nil
}

func run(o options) error {
	if o.remote != "" {
		return runRemote(o)
	}
	if o.in == "" {
		return fmt.Errorf("-in is required")
	}
	testSet, err := readCSVFile(o.in)
	if err != nil {
		return fmt.Errorf("read %s: %w", o.in, err)
	}
	var p *core.Pipeline
	if o.model != "" {
		// Score with a previously fitted pipeline.
		f, err := os.Open(o.model)
		if err != nil {
			return err
		}
		p, err = core.LoadPipelineJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load %s: %w", o.model, err)
		}
	} else {
		m, ok := geometry.Registry()[o.mapping]
		if !ok {
			return fmt.Errorf("unknown mapping %q", o.mapping)
		}
		spec, err := buildDetector(o.detector, o.seed)
		if err != nil {
			return err
		}
		trainSet := testSet
		if o.train != "" {
			trainSet, err = readCSVFile(o.train)
			if err != nil {
				return fmt.Errorf("read %s: %w", o.train, err)
			}
		}
		p = &core.Pipeline{Mapping: m, DetectorSpec: spec, Standardize: true}
		if err := p.Fit(trainSet); err != nil {
			return err
		}
	}
	if o.saveTo != "" {
		// Encode first, so a refused save leaves the file as it was.
		var model bytes.Buffer
		if err := p.SaveJSON(&model); err != nil {
			return fmt.Errorf("save %s: %w", o.saveTo, err)
		}
		if err := os.WriteFile(o.saveTo, model.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Printf("(pipeline saved to %s)\n", o.saveTo)
	}
	scores, err := p.Score(testSet)
	if err != nil {
		return err
	}
	var explain func(i int) ([]expLine, error)
	if o.explain > 0 {
		explain = func(i int) ([]expLine, error) {
			exps, err := p.Explain(testSet.Samples[i], o.explain)
			if err != nil {
				return nil, err
			}
			lines := make([]expLine, len(exps))
			for k, e := range exps {
				lines[k] = expLine{t: e.T, z: e.Z}
			}
			return lines, nil
		}
	}
	if err := report(scores, testSet.Labels, o.top, explain); err != nil {
		return err
	}
	if testSet.Labels != nil {
		auc, err := eval.AUC(scores, testSet.Labels)
		if err == nil {
			fmt.Printf("AUC: %.4f  (mapping=%s detector=%s)\n", auc, p.Mapping.Name(), p.Detector.Name())
		}
	}
	return nil
}

// remoteClient builds the unified v1 client from the remote flags.
func remoteClient(o options) *client.Client {
	codec := "json"
	if o.remoteWire {
		codec = "wire"
	}
	return client.New(client.Options{
		BaseURL:          o.remote,
		Codec:            codec,
		Timeout:          o.remoteTimeout,
		Attempts:         o.remoteAttempts,
		Backoff:          o.remoteBackoff,
		BreakerThreshold: o.remoteBreaker,
		BreakerCooldown:  time.Second,
		Seed:             o.seed,
	})
}

// runRemote scores -in against a running mfodserve or mfodgate through
// internal/client: transient failures are retried with exponential
// backoff and repeated failures open a circuit breaker instead of
// hammering a down service. With -async the curves go through the bulk
// jobs API and stream back incrementally; scores are bitwise identical
// to the synchronous path either way.
func runRemote(o options) error {
	if o.in == "" {
		return fmt.Errorf("-in is required")
	}
	if o.remoteModel == "" {
		return fmt.Errorf("-remote needs -remote-model")
	}
	testSet, err := readCSVFile(o.in)
	if err != nil {
		return fmt.Errorf("read %s: %w", o.in, err)
	}
	c := remoteClient(o)
	ctx := context.Background()

	var scores []float64
	var explain func(i int) ([]expLine, error)
	if o.async {
		job, err := c.SubmitJob(ctx, o.remoteModel, testSet, o.chunk)
		if err != nil {
			return fmt.Errorf("remote job: %w", err)
		}
		fmt.Fprintf(os.Stderr, "mfoddetect: job %s accepted (%d samples, chunk %d)\n",
			job.ID, job.Samples, job.Chunk)
		scores, _, err = job.Collect(ctx)
		if err != nil {
			return fmt.Errorf("remote job: %w", err)
		}
	} else {
		res, err := c.Score(ctx, o.remoteModel, testSet, o.explain)
		if err != nil {
			return fmt.Errorf("remote score: %w", err)
		}
		scores = res.Scores
		if o.explain > 0 && res.Explanations != nil {
			exps := res.Explanations
			explain = func(i int) ([]expLine, error) {
				lines := make([]expLine, len(exps[i]))
				for k, e := range exps[i] {
					lines[k] = expLine{t: e.T, z: e.Z}
				}
				return lines, nil
			}
		}
	}
	if len(scores) != testSet.Len() {
		return fmt.Errorf("remote score: %d scores for %d samples", len(scores), testSet.Len())
	}
	if err := report(scores, testSet.Labels, o.top, explain); err != nil {
		return err
	}
	if testSet.Labels != nil {
		auc, err := eval.AUC(scores, testSet.Labels)
		if err == nil {
			fmt.Printf("AUC: %.4f  (remote model=%s)\n", auc, o.remoteModel)
		}
	}
	return nil
}
