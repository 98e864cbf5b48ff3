package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// batchPrograms are the eleven class-S batch programs batch-hops runs.
var batchPrograms = []string{
	"cg", "mg", "ep", "ft", "is", "linpack", "dhrystone", "kmeans",
	"blackscholes", "swaptions", "streamcluster",
}

const (
	// batchMinJobs is the least number of jobs a run holds, so that its
	// p90 has at least ten jobs beyond it.
	batchMinJobs = 100
	// batchRoundsPerSecond sizes the run like kvWorkload.epochsPerSecond:
	// --seconds × batchRoundsPerSecond rounds of every program once.
	batchRoundsPerSecond = 1.15
	// hopJitter is how far, as a share of a program's cycles, the seed
	// moves each hop point away from 1/3 and 2/3.
	hopJitter = 0.02
)

// batchProg is one compiled program with its unmigrated reference run.
type batchProg struct {
	name   string
	pair   *compiler.Pair
	ref    string // console output of an unmigrated run
	cycles uint64 // virtual cycles of an unmigrated run
}

// batchEnv is two Xeons and a Pi with every program installed.
type batchEnv struct {
	progs        []batchProg
	xeonA, xeonB *cluster.Node
	pi           *cluster.Node
}

// setupBatch compiles every program, boots the nodes, makes the unmigrated
// reference runs, and makes the untimed warm-up migration.
func setupBatch(workers int) (*batchEnv, error) {
	env := &batchEnv{
		xeonA: cluster.NewNode(cluster.XeonSpec),
		xeonB: cluster.NewNode(cluster.XeonSpec),
		pi:    cluster.NewNode(cluster.PiSpec),
	}
	for _, name := range batchPrograms {
		wl, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		pair, err := compiler.Compile(wl.Source(workloads.ClassS))
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		for _, n := range []*cluster.Node{env.xeonA, env.xeonB, env.pi} {
			n.Install(name, pair)
		}
		p, err := env.xeonA.Start(name)
		if err != nil {
			return nil, err
		}
		if err := env.xeonA.K.Run(p); err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", name, err)
		}
		env.xeonA.K.Reap(p)
		env.progs = append(env.progs, batchProg{name: name, pair: pair, ref: p.ConsoleString(), cycles: p.VCycles})
	}
	warm := env.progs[0]
	p, err := env.xeonA.Start(warm.name)
	if err != nil {
		return nil, err
	}
	if _, err := env.xeonA.K.RunBudget(p, warm.cycles/3); err != nil {
		return nil, err
	}
	res, err := cluster.Migrate(env.xeonA, env.pi, p, warm.pair.Meta, vanillaOpts(workers))
	if err != nil {
		return nil, fmt.Errorf("warm-up migration: %w", err)
	}
	if err := res.Close(); err != nil {
		return nil, err
	}
	env.pi.K.Reap(res.Proc)
	return env, nil
}

func runBatch(cfg runConfig) (*outcome, error) {
	out := newOutcome(cfg)
	out.tailPct = 90
	var env *batchEnv
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		e, err := setupBatch(cfg.workers)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		env = e
	}
	out.rssSetup, _ = maxRSSMiB()
	runtime.GC()

	// The seed moves each program's hop points and shuffles the job order
	// of every round; a program hops at the same points in every round.
	r := rand.New(rand.NewSource(cfg.seed))
	n := len(env.progs)
	hop1, hop2 := make([]float64, n), make([]float64, n)
	for i := range env.progs {
		hop1[i] = 1.0/3 + hopJitter*(2*r.Float64()-1)
		hop2[i] = 2.0/3 + hopJitter*(2*r.Float64()-1)
	}
	minRounds := (batchMinJobs + n - 1) / n
	rounds := max(minRounds, int(math.Round(float64(cfg.seconds)*batchRoundsPerSecond)))
	out.params = map[string]any{"programs": batchPrograms, "class": "S", "rounds": rounds, "jobs": rounds * n, "hop_jitter": hopJitter}

	start := time.Now()
	for round := 0; round < rounds; round++ {
		for _, i := range r.Perm(n) {
			lat, err := out.job(env, env.progs[i], hop1[i], hop2[i])
			if err != nil {
				return nil, fmt.Errorf("round %d, %s: %w", round, env.progs[i].name, err)
			}
			out.opLat = append(out.opLat, ms(lat))
		}
	}
	out.wall = time.Since(start)
	out.attempted = rounds * n
	return out, nil
}

// job runs one program to f1 of its cycles on Xeon A, moves it to Xeon B
// (same ISA), runs it to f2, moves it to the Pi (cross ISA), and runs it to
// the end; its console output must match the unmigrated run byte for byte.
func (o *outcome) job(env *batchEnv, prog batchProg, f1, f2 float64) (time.Duration, error) {
	h1 := uint64(f1 * float64(prog.cycles))
	h2 := uint64(f2 * float64(prog.cycles))
	t0 := time.Now()
	p1, err := env.xeonA.Start(prog.name)
	if err != nil {
		return 0, err
	}
	if alive, err := o.guest.runBudget(env.xeonA.K, p1, h1); err != nil || !alive {
		return 0, fmt.Errorf("first leg: alive %v, err %v", alive, err)
	}
	res1, err := o.migrateVanilla(env.xeonA, env.xeonB, p1, prog.pair)
	if err != nil {
		return 0, err
	}
	p2 := res1.Proc
	if alive, err := o.guest.runBudget(env.xeonB.K, p2, h2-h1); err != nil || !alive {
		return 0, fmt.Errorf("second leg: alive %v, err %v", alive, err)
	}
	res2, err := o.migrateVanilla(env.xeonB, env.pi, p2, prog.pair)
	if err != nil {
		return 0, err
	}
	p3 := res2.Proc
	if err := o.guest.run(env.pi.K, p3); err != nil {
		return 0, fmt.Errorf("last leg: %w", err)
	}
	lat := time.Since(t0)
	env.pi.K.Reap(p3)
	for _, res := range []*cluster.MigrationResult{res1, res2} {
		if err := res.Close(); err != nil {
			return 0, err
		}
	}
	if got := p1.ConsoleString() + p2.ConsoleString() + p3.ConsoleString(); got != prog.ref || p3.ExitCode != 0 {
		o.problem(fmt.Errorf("%s: output after two hops differs from the unmigrated run (exit %d)", prog.name, p3.ExitCode))
	}
	return lat, nil
}
