package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles judges the untraced runs of record file newPath against
// those of basePath, workload by workload, for every end-to-end metric,
// and for the failed fraction. It reports whether anything regressed.
func compareFiles(specPath, basePath, newPath string, w io.Writer) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	bg, ng := byWorkload(base), byWorkload(next)
	names := slices.Clone(workloadNames)
	for _, g := range []map[string][]*record{bg, ng} {
		for name := range g {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}

	regressed := false
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tbound\tverdict")
	for _, name := range names {
		br, nr := bg[name], ng[name]
		if len(br) == 0 || len(nr) == 0 {
			if len(br)+len(nr) > 0 {
				fmt.Fprintf(tw, "%s\t(all)\t%d runs\t%d runs\t\t\tunresolved\n", name, len(br), len(nr))
			}
			continue
		}
		for _, m := range spec.EndToEnd {
			j := judge(values(br, m.Name), values(nr, m.Name), m.Better, m.Bound)
			regressed = regressed || j.verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				name, m.Name, j.base, j.next, 100*j.change, 100*m.Bound, j.verdict)
		}
		bf, nf := failedFrac(br), failedFrac(nr)
		verdict := "same"
		switch {
		case nf > bf:
			verdict = "worse"
			regressed = true
		case nf < bf:
			verdict = "better"
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g\t%.6g\t\tany\t%s\n", name, bf, nf, verdict)
	}
	return regressed, tw.Flush()
}

func byWorkload(f *recordFile) map[string][]*record {
	g := map[string][]*record{}
	for _, r := range f.Runs {
		if !r.Traced {
			g[r.Workload] = append(g[r.Workload], r)
		}
	}
	return g
}

func values(runs []*record, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failedFrac(runs []*record) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

type judgement struct {
	base, next, change float64
	verdict            string
}

// judge compares the medians of two sets of runs of one metric. A change
// beyond the bound is worse or better; where either side's spread (its
// interquartile range over its median) exceeds the bound, the verdict is
// unresolved, unless every new run beats every base run.
func judge(base, next []float64, better string, bound float64) judgement {
	if len(base) == 0 || len(next) == 0 {
		return judgement{math.NaN(), math.NaN(), math.NaN(), "unresolved"}
	}
	j := judgement{base: median(base), next: median(next)}
	j.change = (j.next - j.base) / j.base
	worse := j.change
	if better == "higher" {
		worse = -worse
	}
	switch spread := math.Max(relIQR(base), relIQR(next)); {
	case spread > bound && allBetter(next, base, better):
		j.verdict = "better"
	case spread > bound:
		j.verdict = "unresolved"
	case worse > bound:
		j.verdict = "worse"
	case worse < -bound:
		j.verdict = "better"
	default:
		j.verdict = "same"
	}
	return j
}

func relIQR(v []float64) float64 {
	return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

// allBetter reports whether every value of next beats every value of base.
func allBetter(next, base []float64, better string) bool {
	if better == "higher" {
		return slices.Min(next) > slices.Max(base)
	}
	return slices.Max(next) < slices.Min(base)
}
