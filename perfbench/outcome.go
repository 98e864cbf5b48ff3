package main

import (
	"runtime"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 3

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workers  int
}

// outcome is everything one workload run measured.
type outcome struct {
	cfg       runConfig
	setupS    []float64
	attempted int
	problems  []string // failed output checks
	opLat     []float64
	tailPct   float64
	wall      time.Duration // the measured phase
	guest     *guestMeter
	mig       *migMeter
	lag       []float64 // generator lag per request, ms; nil without a generator
	layers    *layerMeter
	tr        *tracer // nil unless tracing
	params    map[string]any
	rssSetup  float64 // peak resident set when set-up ended, MiB
}

func newOutcome(cfg runConfig) *outcome {
	o := &outcome{cfg: cfg, guest: newGuestMeter(), mig: &migMeter{}, layers: newLayerMeter()}
	if cfg.trace {
		o.tr = newTracer()
	}
	return o
}

// problem records a failed output check; the first few are kept verbatim.
func (o *outcome) problem(err error) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, err.Error())
	} else if len(o.problems) == 20 {
		o.problems = append(o.problems, "further problems not listed")
	}
}

// vanillaOpts are the options of every vanilla migration the benchmark
// makes.
func vanillaOpts(workers int) cluster.MigrateOpts {
	return cluster.MigrateOpts{Codec: criu.CodecFlate, Workers: workers}
}

// migrateVanilla makes one vanilla migration; traced runs replay it stage
// by stage first. Measured downtime is the whole Migrate call.
func (o *outcome) migrateVanilla(src, dst *cluster.Node, p *kernel.Process, pair *compiler.Pair) (*cluster.MigrationResult, error) {
	opts := vanillaOpts(o.cfg.workers)
	if o.tr != nil {
		res, call, err := tracedVanilla(o.tr, o.layers, o.mig, src, dst, p, pair.Meta, opts)
		if err != nil {
			return nil, err
		}
		o.mig.downtime = append(o.mig.downtime, ms(call))
		return res, nil
	}
	res, start, end, err := o.mig.migrate(src, dst, p, pair.Meta, opts)
	if err != nil {
		return nil, err
	}
	o.mig.downtime = append(o.mig.downtime, ms(end.Sub(start)))
	return res, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the ten end-to-end metrics.
func (o *outcome) endToEnd() (map[string]metric, error) {
	if err := checkTail(len(o.opLat), o.tailPct); err != nil {
		return nil, err
	}
	rss, err := maxRSSMiB()
	if err != nil {
		return nil, err
	}
	m := o.mig
	return map[string]metric{
		"setup_s":             {median(o.setupS), "s"},
		"ops_per_s":           {float64(len(o.opLat)) / o.wall.Seconds(), "1/s"},
		"op_ms_p50":           {median(o.opLat), "ms"},
		"op_ms_tail":          {percentile(o.opLat, o.tailPct), "ms"},
		"downtime_ms":         {median(m.downtime), "ms"},
		"modeled_downtime_ms": {mean(m.modeled), "ms"},
		"wire_kib_per_mig":    {mean(m.wireKiB), "KiB"},
		"alloc_mib_per_mig":   {mean(m.allocMiB), "MiB"},
		"guest_mcycles_per_s": {float64(o.guest.totalCycles()) / o.guest.totalNs().Seconds() / 1e6, "Mcycles/s"},
		"max_rss_mib":         {rss, "MiB"},
	}, nil
}

// spanMetrics maps per-layer metric names to the replay span they are the
// median duration of.
var spanMetrics = map[string]string{
	"monitor.pause_ms":       "monitor.pause",
	"criu.dump_ms":           "criu.dump",
	"imgcheck.verify_ms":     "imgcheck.verify",
	"core.rewrite_ms":        "core.rewrite",
	"updatecheck.skew_ms":    "updatecheck.skew",
	"image.marshal_ms":       "image.marshal",
	"image.unmarshal_ms":     "image.unmarshal",
	"imgproto.compress_ms":   "imgproto.compress",
	"imgproto.decompress_ms": "imgproto.decompress",
	"criu.restore_ms":        "criu.restore",
}

// perLayerUnits lists every per-layer metric with its unit, in report
// order.
var perLayerUnits = []struct{ name, unit string }{
	{"kernel.ns_per_cycle.sx86", "ns"}, {"kernel.ns_per_cycle.sarm", "ns"}, {"kernel.cycles_per_op", "Mcycles"},
	{"monitor.pause_ms", "ms"}, {"criu.dump_ms", "ms"}, {"criu.dump_pages", "pages"},
	{"imgcheck.verify_ms", "ms"}, {"core.rewrite_ms", "ms"}, {"updatecheck.skew_ms", "ms"},
	{"image.marshal_ms", "ms"}, {"image.unmarshal_ms", "ms"}, {"image.raw_kib", "KiB"},
	{"imgproto.compress_ms", "ms"}, {"imgproto.decompress_ms", "ms"}, {"imgproto.wire_ratio", "ratio"},
	{"criu.restore_ms", "ms"}, {"criu.restore_pages", "pages"},
	{"cluster.migrate_ms", "ms"}, {"cluster.unattributed_ms", "ms"}, {"cluster.modeled_recode_ms", "ms"},
	{"precopy.rounds", "count"}, {"precopy.final_kib", "KiB"}, {"precopy.live_ms", "ms"},
	{"go.alloc_mib.dump", "MiB"}, {"go.alloc_mib.codec", "MiB"}, {"go.alloc_mib.restore", "MiB"},
	{"go.gc_cycles_per_mig", "count"}, {"go.gc_pause_ms", "ms"},
	{"gen.lag_ms_p99", "ms"},
}

// perLayer computes every per-layer metric. A layer that does not run on
// (or is not observable from) a workload's path reads 0.
func (o *outcome) perLayer() map[string]metric {
	m := o.mig
	n := float64(len(m.call))
	ops := float64(len(o.opLat))
	v := map[string]float64{
		"kernel.ns_per_cycle.sx86":  o.guest.nsPerCycle(isa.SX86),
		"kernel.ns_per_cycle.sarm":  o.guest.nsPerCycle(isa.SARM),
		"kernel.cycles_per_op":      float64(o.guest.totalCycles()) / ops / 1e6,
		"cluster.migrate_ms":        median(m.call),
		"cluster.modeled_recode_ms": mean(m.modeledRecode),
		"precopy.rounds":            mean(m.rounds),
		"precopy.final_kib":         mean(m.finalKiB),
		"precopy.live_ms":           0,
		"go.gc_cycles_per_mig":      float64(m.gcCycles) / n,
		"go.gc_pause_ms":            ms(m.gcPause) / n,
		"gen.lag_ms_p99":            0,
	}
	if len(m.liveMs) > 0 {
		v["precopy.live_ms"] = median(m.liveMs)
	}
	if len(o.lag) > 0 {
		v["gen.lag_ms_p99"] = percentile(o.lag, 99)
	}
	for name, spanName := range spanMetrics {
		if d := o.tr.durations(spanName); len(d) > 0 {
			v[name] = median(d)
		}
	}
	for name, s := range o.layers.samples {
		if _, ok := v[name]; !ok {
			v[name] = median(s)
		}
	}
	out := make(map[string]metric, len(perLayerUnits))
	for _, pu := range perLayerUnits {
		out[pu.name] = metric{v[pu.name], pu.unit}
	}
	return out
}

// diagnostics is what a result file carries beside the metrics, so an
// unsteady run can be attributed.
func (o *outcome) diagnostics() map[string]any {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d := map[string]any{
		"seed":              o.cfg.seed,
		"go_version":        runtime.Version(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"workers":           o.cfg.workers,
		"gc_cycles":         ms0.NumGC,
		"gc_pause_total_ms": float64(ms0.PauseTotalNs) / 1e6,
		"setup_s":           o.setupS,
		"measured_s":        o.wall.Seconds(),
		"operations":        len(o.opLat),
		"migrations":        len(o.mig.call),
		"tail_percentile":   o.tailPct,
		"tail_beyond":       samplesBeyond(len(o.opLat), o.tailPct),
		"guest_share":       o.guest.totalNs().Seconds() / o.wall.Seconds(),
		"migrate_share":     sum(o.mig.call) / 1000 / o.wall.Seconds(),
		"workload":          o.params,
		"max_rss_setup_mib": o.rssSetup,
	}
	if len(o.lag) > 0 {
		d["gen_lag_ms_p99"] = percentile(o.lag, 99)
		d["gen_lag_ms_max"] = percentile(o.lag, 100)
	}
	if len(o.problems) > 0 {
		d["problems"] = o.problems
	}
	if o.mig.wireOverRaw > 0 {
		d["wire_over_raw_migrations"] = o.mig.wireOverRaw
	}
	return d
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// correct is the run's verdict on its outputs: every answer and console
// matched its oracle, and no migration put more bytes on the wire than its
// raw image holds.
func (o *outcome) correct() bool {
	return len(o.problems) == 0 && o.mig.wireOverRaw == 0
}
