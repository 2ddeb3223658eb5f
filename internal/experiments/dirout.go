package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depth"
	"repro/internal/stats"
)

// DirOutDecompRow summarises the Dai–Genton (MO, VO) decomposition for
// one (outlier class, group) cell: the medians of ‖MO‖² and VO over the
// group's samples.
type DirOutDecompRow struct {
	Class     dataset.OutlierClass
	Group     string // "inlier" or "outlier"
	MedianMO2 float64
	MedianVO  float64
}

// RunDirOutDecomposition reproduces the diagnostic the paper describes in
// Sec. 1.2: the directional outlyingness of a sample decomposes into a
// mean component MO (isolated/magnitude outlyingness) and a
// variance-like component VO (persistent/shape outlyingness), and the
// *position* of a sample in the (‖MO‖², VO) plane identifies its outlier
// class. The experiment fits Dir.out per taxonomy class and reports the
// group medians of both components.
func RunDirOutDecomposition(opt AblationOptions) ([]DirOutDecompRow, error) {
	classes := []dataset.OutlierClass{dataset.IsolatedMagnitude, dataset.PersistentShape}
	var rows []DirOutDecompRow
	for _, class := range classes {
		d, err := dataset.Taxonomy(dataset.TaxonomyOptions{Class: class, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		lo, hi := d.Domain()
		grid := d.Samples[0].Times
		vals, err := core.GridValues(d, grid, lo, hi)
		if err != nil {
			return nil, err
		}
		do, err := depth.FitDirOut(vals, depth.ProjectionOptions{Directions: 50, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		groups := map[string]struct{ mo2, vo []float64 }{}
		for i, v := range vals {
			mo, vo, err := do.Components(v)
			if err != nil {
				return nil, fmt.Errorf("experiments: dirout decomposition sample %d: %w", i, err)
			}
			var mo2 float64
			for _, m := range mo {
				mo2 += m * m
			}
			group := "inlier"
			if d.Labels[i] == 1 {
				group = "outlier"
			}
			g := groups[group]
			g.mo2 = append(g.mo2, mo2)
			g.vo = append(g.vo, vo)
			groups[group] = g
		}
		for _, group := range []string{"inlier", "outlier"} {
			g := groups[group]
			rows = append(rows, DirOutDecompRow{
				Class:     class,
				Group:     group,
				MedianMO2: stats.Median(g.mo2),
				MedianVO:  stats.Median(g.vo),
			})
		}
	}
	return rows, nil
}

// FormatDirOutDecomposition renders the decomposition diagnostic.
func FormatDirOutDecomposition(rows []DirOutDecompRow) string {
	out := "Dir.out (MO, VO) decomposition per outlier class (medians per group)\n"
	out += fmt.Sprintf("%-22s %-8s %12s %12s\n", "outlierClass", "group", "med ‖MO‖²", "med VO")
	for _, r := range rows {
		out += fmt.Sprintf("%-22s %-8s %12.4f %12.4f\n", r.Class, r.Group, r.MedianMO2, r.MedianVO)
	}
	return out
}
