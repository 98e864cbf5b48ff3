package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet is the untraced result files of one set, by workload.
type resultSet map[string][]resultFile

func loadSet(dir string) (resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := resultSet{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Trace {
			continue
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	return set, nil
}

// verdict judges set b against set a for one metric: "unresolved" when
// either set spreads wider than the bound (unless every b run beats, or
// loses to, every a run), else "better"/"worse" when the medians differ by
// more than the bound, else "within".
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	ratio := mb / ma
	worse := ratio - 1 // how much worse b is, as a share of a's median
	if !lowerIsBetter {
		worse = 1 - ratio
	}
	if spread(a) > bound || spread(b) > bound {
		beats := func(x, y float64) bool { return (x < y) == lowerIsBetter && x != y }
		allBetter, allWorse := true, true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && beats(x, y)
				allWorse = allWorse && beats(y, x)
			}
		}
		switch {
		case allBetter:
			return "better", ratio
		case allWorse:
			return "worse", ratio
		}
		return "unresolved", ratio
	}
	switch {
	case worse > bound:
		return "worse", ratio
	case -worse > bound:
		return "better", ratio
	}
	return "within", ratio
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

func failedShare(rs []resultFile) string {
	var att, fail int
	for _, r := range rs {
		att += r.Attempted
		fail += r.Failed
	}
	return fmt.Sprintf("%d/%d", fail, att)
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	dirA := fs.String("a", "", "directory of the first set's result files")
	dirB := fs.String("b", "", "directory of the second set's result files")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dirA == "" || *dirB == "" {
		return fmt.Errorf("want -a and -b")
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	a, err := loadSet(*dirA)
	if err != nil {
		return err
	}
	b, err := loadSet(*dirB)
	if err != nil {
		return err
	}
	var workloads []string
	for w := range a {
		if _, ok := b[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tB/A\tbound\tverdict\t")
	counts := map[string]int{}
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			var va, vb []float64
			for _, r := range a[w] {
				va = append(va, r.EndToEnd[m.Name].Value)
			}
			for _, r := range b[w] {
				vb = append(vb, r.EndToEnd[m.Name].Value)
			}
			v, ratio := verdict(va, vb, m.Better == "lower", m.Bound)
			counts[v]++
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.3f\t%.2f\t%s\t\n",
				w, m.Name, m.Unit, a1, a2, a3, b1, b2, b3, ratio, m.Bound, v)
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t\t\t%s\t\t\t%s\t\t\t\t\t\n", w, failedShare(a[w]), failedShare(b[w]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("within %d, better %d, worse %d, unresolved %d\n", counts["within"], counts["better"], counts["worse"], counts["unresolved"])
	return nil
}
