package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// migInterval is the schedule time between two migrations of the server.
const migInterval = 500 * time.Millisecond

// kvWorkload is rediska at class B (a 65,536-slot table) serving an
// open-loop request stream while it migrates between a Xeon and a Pi every
// migInterval.
type kvWorkload struct {
	keys    int // bulk-loaded keys
	mix     kvMix
	precopy bool
	// epochsPerSecond sizes the run: --seconds × epochsPerSecond epochs of
	// migInterval each (rounded to an even count, so both directions
	// migrate equally often). It is fixed, not adaptive, so that a seed
	// always gives the same requests and migrated states; it is calibrated
	// so that a run takes about --seconds on a 2-core x86 host.
	epochsPerSecond float64
}

var (
	kvVanilla = kvWorkload{keys: 12000, mix: kvMix{rate: 500, setFrac: 0.25, keys: 12000}, epochsPerSecond: 8}
	kvPrecopy = kvWorkload{keys: 4000, mix: kvMix{rate: 2000, setFrac: 0.5, keys: 4000}, precopy: true, epochsPerSecond: 11.5}
)

// kvEnv is a booted server: two nodes and the process on one of them.
type kvEnv struct {
	pair  *compiler.Pair
	nodes [2]*cluster.Node // Xeon, Pi
	cur   int              // index of the node holding p
	p     *kernel.Process
}

func (w kvWorkload) opts(workers int) cluster.MigrateOpts {
	o := vanillaOpts(workers)
	if w.precopy {
		o.Delta = true
		o.PreCopy = &cluster.PreCopyOpts{RunUntilIdle: true, TCP: true}
	}
	return o
}

// setup compiles rediska, boots a Xeon and a Pi, bulk-loads the database,
// checks STATS, and makes the untimed warm-up migration to the Pi.
func (w kvWorkload) setup(workers int) (*kvEnv, error) {
	wl, err := workloads.Get("rediska")
	if err != nil {
		return nil, err
	}
	pair, err := compiler.Compile(wl.Source(workloads.ClassB))
	if err != nil {
		return nil, fmt.Errorf("compile rediska: %w", err)
	}
	env := &kvEnv{pair: pair, nodes: [2]*cluster.Node{cluster.NewNode(cluster.XeonSpec), cluster.NewNode(cluster.PiSpec)}}
	for _, n := range env.nodes {
		n.Install(wl.Name, pair)
	}
	if env.p, err = env.nodes[0].Start(wl.Name); err != nil {
		return nil, err
	}
	g := newGuestMeter()
	for _, c := range []struct {
		req  []byte
		want uint64
	}{
		{workloads.RediskaLoad(uint64(w.keys)), uint64(w.keys)},
		// The store must hold every key: a table smaller than the load
		// silently drops keys (see README).
		{workloads.RediskaStats(), uint64(w.keys)},
	} {
		resp, err := g.serve(env.nodes[0].K, env.p, c.req)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		if ws := workloads.ParseWords(resp); len(ws) != 2 || ws[0] != 1 || ws[1] != c.want {
			return nil, fmt.Errorf("load: answer %v, want [1 %d]", ws, c.want)
		}
	}
	res, err := cluster.Migrate(env.nodes[0], env.nodes[1], env.p, pair.Meta, w.opts(workers))
	if err != nil {
		return nil, fmt.Errorf("warm-up migration: %w", err)
	}
	if err := res.Close(); err != nil {
		return nil, err
	}
	env.p, env.cur = res.Proc, 1
	return env, nil
}

func epochCount(seconds int, perSecond float64) int {
	return max(2, 2*int(math.Round(float64(seconds)*perSecond/2)))
}

func (w kvWorkload) run(cfg runConfig) (*outcome, error) {
	out := newOutcome(cfg)
	out.tailPct = 99
	var env *kvEnv
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := w.setup(cfg.workers)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		env = e
	}
	out.rssSetup, _ = maxRSSMiB()
	runtime.GC()

	epochs := epochCount(cfg.seconds, w.epochsPerSecond)
	window := time.Duration(epochs+1) * migInterval
	reqs := genRequests(cfg.seed, w.mix, window)
	model := newKVModel(w.keys)
	out.params = map[string]any{
		"keys": w.keys, "rate_per_s": w.mix.rate, "set_share": w.mix.setFrac,
		"migrations": epochs, "requests": len(reqs), "class": "B",
	}
	clock := newSchedClock()
	loop := newOpenLoop(clock, reqs, func(i int) error {
		node := env.nodes[env.cur]
		resp, err := out.guest.serve(node.K, env.p, encode(reqs[i]))
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if err := model.apply(reqs[i], resp); err != nil {
			out.problem(fmt.Errorf("request %d: %w", i, err))
		}
		return nil
	})

	start := time.Now()
	for k := 1; k <= epochs; k++ {
		at := time.Duration(k) * migInterval
		if err := loop.ServeBefore(at); err != nil {
			return nil, err
		}
		clock.SkipTo(at)
		src, dst := env.nodes[env.cur], env.nodes[1-env.cur]
		var res *cluster.MigrationResult
		var err error
		if w.precopy {
			res, err = w.migratePrecopy(out, loop, src, dst, env)
		} else {
			res, err = out.migrateVanilla(src, dst, env.p, env.pair)
		}
		if err != nil {
			return nil, fmt.Errorf("migration %d: %w", k, err)
		}
		if err := res.Close(); err != nil {
			return nil, err
		}
		env.p, env.cur = res.Proc, 1-env.cur
	}
	if err := loop.ServeBefore(window); err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	out.attempted = len(reqs)
	out.opLat = loop.latency
	out.lag = loop.lag

	// The store must end with exactly the model's items, and shut down
	// cleanly when its input closes.
	node := env.nodes[env.cur]
	resp, err := newGuestMeter().serve(node.K, env.p, workloads.RediskaStats())
	if err != nil {
		return nil, fmt.Errorf("final STATS: %w", err)
	}
	if ws := workloads.ParseWords(resp); len(ws) != 2 || ws[0] != 1 || ws[1] != uint64(model.items()) {
		out.problem(fmt.Errorf("final STATS: answer %v, want [1 %d]", ws, model.items()))
	}
	env.p.CloseInput()
	if err := node.K.Run(env.p); err != nil || env.p.ExitCode != 0 {
		out.problem(fmt.Errorf("server shutdown: exit %d, err %v", env.p.ExitCode, err))
	}
	return out, nil
}

// migratePrecopy runs one pre-copy migration. Requests that fall due while
// it runs reach the source from the BetweenRounds hook; measured downtime
// runs from the end of the last hook (the last resume) to Migrate's return.
func (w kvWorkload) migratePrecopy(out *outcome, loop *openLoop, src, dst *cluster.Node, env *kvEnv) (*cluster.MigrationResult, error) {
	opts := w.opts(out.cfg.workers)
	var reg *obs.Registry
	span := 0
	if out.tr != nil {
		reg = obs.New()
		opts.Obs = reg
		span = out.tr.start("cluster.migrate", 0)
	}
	var hookErr error
	var lastResume time.Time
	var serving time.Duration // spent in the hook serving traffic
	opts.PreCopy.BetweenRounds = func(*kernel.Process, int) {
		t0 := time.Now()
		if out.tr != nil {
			defer out.tr.end(out.tr.start("precopy.serve", span))
		}
		if hookErr == nil {
			hookErr = loop.ServeDue()
		}
		lastResume = time.Now()
		serving += lastResume.Sub(t0)
	}
	res, start, end, err := out.mig.migrate(src, dst, env.p, env.pair.Meta, opts)
	if out.tr != nil {
		out.tr.end(span)
	}
	if err != nil {
		return nil, err
	}
	if hookErr != nil {
		return nil, fmt.Errorf("serving between rounds: %w", hookErr)
	}
	if lastResume.IsZero() {
		lastResume = start
	}
	out.mig.downtime = append(out.mig.downtime, ms(end.Sub(lastResume)))
	out.mig.liveMs = append(out.mig.liveMs, ms(lastResume.Sub(start)))
	if reg != nil {
		precopyLayers(out.layers, reg, res.Breakdown, end.Sub(start)-serving)
	}
	return res, nil
}

// precopyLayers reads one pre-copy migration's per-layer figures from the
// program's own telemetry registry, summed over its rounds. own is the
// Migrate call's host time less the hook's serving.
func precopyLayers(lm *layerMeter, reg *obs.Registry, bd cluster.Breakdown, own time.Duration) {
	sum := func(name string) float64 { return ms(reg.Histogram(name).Sum()) }
	pause, dump, rewrite := sum("monitor.pause_ns"), sum("dump.wall_ns"), sum("recode.host_ns")
	restore := sum("restore.verify_ns") + sum("restore.install_ns")
	compress := sum("wire.codec_ns")
	lm.add("monitor.pause_ms", pause)
	lm.add("criu.dump_ms", dump)
	lm.add("core.rewrite_ms", rewrite)
	lm.add("criu.restore_ms", restore)
	lm.add("imgproto.compress_ms", compress)
	lm.add("cluster.unattributed_ms", ms(own)-pause-dump-rewrite-restore-compress)
	lm.add("criu.dump_pages", float64(reg.Counter("dump.pages_dumped").Value()))
	lm.add("criu.restore_pages", float64(reg.Counter("restore.pages").Value()))
	lm.add("image.raw_kib", float64(bd.ImageBytes)/1024)
	lm.add("imgproto.wire_ratio", float64(bd.WireBytes)/float64(bd.ImageBytes))
}
