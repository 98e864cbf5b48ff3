// Command perfbench is the measured-downtime benchmark: it drives the
// library's public entry points (cluster.Migrate, the kernel's
// Run/RunBudget/Step, and the rediska protocol helpers) through three
// workloads, checks every output against an oracle computed apart from the
// program, and prints end-to-end metrics (or, traced, per-layer metrics)
// as one JSON object on its last line. See README.md.
//
//	perfbench --workload kv-vanilla --seed 1 --seconds 10 --trace 0
//	perfbench compare -a <results dir> -b <results dir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// resultDir is where result and span files go unless --out names a file;
// it lies inside the build directory run.sh uses.
const resultDir = ".bench_build/results"

var workloadRuns = map[string]func(runConfig) (*outcome, error){
	"kv-vanilla": kvVanilla.run,
	"kv-precopy": kvPrecopy.run,
	"batch-hops": runBatch,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// summary is the last line of a run's standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what a run writes for the compare mode: both metric sets
// it measured and the diagnostics that attribute an unsteady run.
type resultFile struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
	Diagnostics map[string]any    `json:"diagnostics"`
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "kv-vanilla, kv-precopy or batch-hops")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "run length; sets the fixed amount of work measured")
	trace := fs.Int("trace", 0, "1 replays migrations stage by stage and reports per-layer metrics")
	outPath := fs.String("out", "", "result file (default: a new file under "+resultDir+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloadRuns[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU()}
	out, err := run(cfg)
	if err != nil {
		return err
	}
	e2e, err := out.endToEnd()
	if err != nil {
		return err
	}
	res := resultFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		// An operation the program cannot complete (a failed step or
		// migration) ends the run with an error instead, so none fails.
		Correct: out.correct(), Attempted: out.attempted, Failed: 0,
		EndToEnd: e2e, Diagnostics: out.diagnostics(),
	}
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: e2e}
	if cfg.trace {
		res.PerLayer = out.perLayer()
		sum.Metrics = res.PerLayer
	}

	path := *outPath
	if path == "" {
		path = filepath.Join(resultDir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, *trace, time.Now().UnixNano()))
	}
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "result file:", path)
	if out.tr != nil {
		spans := path[:len(path)-len(filepath.Ext(path))] + ".spans.json"
		if err := out.tr.write(spans); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "span file:", spans)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
