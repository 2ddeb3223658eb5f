// Command mfodgen writes the repository's synthetic datasets to CSV in the
// long format read back by cmd/mfoddetect (columns:
// sample,label,param,time,value), or — with -json — to the JSON document
// shape that doubles as a cmd/mfodserve scoring-request body.
//
// Usage:
//
//	mfodgen -data ecg        [-n 200] [-points 85] [-frac 0.35] [-bivariate] [-seed 1] [-o ecg.csv]
//	mfodgen -data taxonomy   [-class persistent-shape] [-n 150] [-seed 1]
//	mfodgen -data fig1       [-json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/fda"
)

func main() {
	var (
		data      = flag.String("data", "ecg", "dataset: ecg, taxonomy, fig1")
		n         = flag.Int("n", 0, "number of samples (0 = dataset default)")
		points    = flag.Int("points", 0, "measurement points per sample (0 = default)")
		frac      = flag.Float64("frac", 0, "outlier fraction (0 = default)")
		bivariate = flag.Bool("bivariate", false, "augment ECG to bivariate (x, x²) as in the paper")
		class     = flag.String("class", "persistent-shape", "taxonomy outlier class")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("o", "-", "output path (- = stdout)")
		asJSON    = flag.Bool("json", false, "write JSON instead of CSV (usable as an mfodserve /v1/score body)")
	)
	flag.Parse()
	if err := run(*data, *n, *points, *frac, *bivariate, *class, *seed, *out, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "mfodgen:", err)
		os.Exit(1)
	}
}

func run(data string, n, points int, frac float64, bivariate bool, class string, seed int64, out string, asJSON bool) error {
	var (
		d   fda.Dataset
		err error
	)
	switch data {
	case "ecg":
		opt := dataset.ECGOptions{N: n, Points: points, OutlierFraction: frac, Seed: seed}
		if bivariate {
			d, err = dataset.ECGBivariate(opt)
		} else {
			d, err = dataset.ECG(opt)
		}
	case "taxonomy":
		var cls dataset.OutlierClass
		found := false
		for _, c := range dataset.OutlierClasses() {
			if c.String() == class {
				cls = c
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown taxonomy class %q", class)
		}
		d, err = dataset.Taxonomy(dataset.TaxonomyOptions{
			N: n, Points: points, OutlierFraction: frac, Class: cls, Seed: seed,
		})
	case "fig1":
		d = dataset.Figure1(dataset.Figure1Options{N: n, Points: points, Seed: seed})
	default:
		return fmt.Errorf("unknown dataset %q", data)
	}
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if asJSON {
		return dataset.WriteJSON(w, d)
	}
	return dataset.WriteCSV(w, d)
}
