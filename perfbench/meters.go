package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// maxSteps bounds every scheduler loop the benchmark drives, so a program
// that stops making progress fails the run instead of hanging it.
const maxSteps = 50_000_000

// guestMeter times the benchmark's own calls into the kernel (Step, Run,
// RunBudget) and counts the guest cycles they retire, per guest ISA.
type guestMeter struct {
	ns     map[isa.Arch]time.Duration
	cycles map[isa.Arch]uint64
}

func newGuestMeter() *guestMeter {
	return &guestMeter{ns: map[isa.Arch]time.Duration{}, cycles: map[isa.Arch]uint64{}}
}

func threadCycles(p *kernel.Process) uint64 {
	var c uint64
	for _, t := range p.Threads {
		c += t.Cycles
	}
	return c
}

func (g *guestMeter) timed(p *kernel.Process, f func() error) error {
	c0 := threadCycles(p)
	t0 := time.Now()
	err := f()
	g.ns[p.Arch] += time.Since(t0)
	g.cycles[p.Arch] += threadCycles(p) - c0
	return err
}

// serve sends one request to a server blocked in recv and steps it until
// it blocks again with its input drained, returning the answer.
func (g *guestMeter) serve(k *kernel.Kernel, p *kernel.Process, req []byte) ([]byte, error) {
	p.PushInput(req)
	err := g.timed(p, func() error {
		for i := 0; i < maxSteps; i++ {
			st, err := k.Step(p)
			if err != nil {
				return err
			}
			if st.Exited {
				return fmt.Errorf("server exited: %v", p.Err)
			}
			if st.Runnable == 0 && p.PendingInput() == 0 {
				return nil
			}
		}
		return fmt.Errorf("server did not answer within %d steps", maxSteps)
	})
	if err != nil {
		return nil, err
	}
	return p.TakeOutput(), nil
}

func (g *guestMeter) runBudget(k *kernel.Kernel, p *kernel.Process, cycles uint64) (alive bool, err error) {
	err = g.timed(p, func() error {
		var rerr error
		alive, rerr = k.RunBudget(p, cycles)
		return rerr
	})
	return alive, err
}

func (g *guestMeter) run(k *kernel.Kernel, p *kernel.Process) error {
	return g.timed(p, func() error { return k.Run(p) })
}

func (g *guestMeter) totalCycles() uint64 {
	var c uint64
	for _, v := range g.cycles {
		c += v
	}
	return c
}

func (g *guestMeter) totalNs() time.Duration {
	var d time.Duration
	for _, v := range g.ns {
		d += v
	}
	return d
}

// nsPerCycle is host nanoseconds per guest cycle on one ISA, 0 if that ISA
// never ran.
func (g *guestMeter) nsPerCycle(a isa.Arch) float64 {
	if g.cycles[a] == 0 {
		return 0
	}
	return float64(g.ns[a]) / float64(g.cycles[a])
}

// migMeter records every measured cluster.Migrate call.
type migMeter struct {
	call          []float64 // ms, the whole Migrate call
	downtime      []float64 // ms, measured host downtime
	modeled       []float64 // ms, Breakdown.Downtime
	modeledRecode []float64 // ms, Breakdown.Recode
	wireKiB       []float64
	rawKiB        []float64
	allocMiB      []float64
	rounds        []float64
	finalKiB      []float64
	liveMs        []float64
	gcCycles      uint32
	gcPause       time.Duration
	// wireOverRaw counts migrations that put more bytes on the wire than
	// the raw image holds; the codec must never expand an image.
	wireOverRaw int
}

// migrate runs one cluster.Migrate and records its breakdown, host time,
// and Go allocation; the caller records the downtime, whose start differs
// between vanilla and pre-copy.
func (m *migMeter) migrate(src, dst *cluster.Node, p *kernel.Process, meta *stackmap.Metadata, opts cluster.MigrateOpts) (*cluster.MigrationResult, time.Time, time.Time, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := cluster.Migrate(src, dst, p, meta, opts)
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, start, end, fmt.Errorf("migrate %s->%s: %w", src.Spec.Name, dst.Spec.Name, err)
	}
	bd := res.Breakdown
	m.call = append(m.call, ms(end.Sub(start)))
	m.modeled = append(m.modeled, ms(bd.Downtime))
	m.modeledRecode = append(m.modeledRecode, ms(bd.Recode))
	m.wireKiB = append(m.wireKiB, float64(bd.WireBytes)/1024)
	m.rawKiB = append(m.rawKiB, float64(bd.ImageBytes)/1024)
	m.allocMiB = append(m.allocMiB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	m.rounds = append(m.rounds, float64(bd.Rounds))
	final := bd.WireBytes
	if n := len(bd.RoundBytes); n > 0 {
		final = bd.RoundBytes[n-1]
	}
	m.finalKiB = append(m.finalKiB, float64(final)/1024)
	m.gcCycles += after.NumGC - before.NumGC
	m.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if bd.WireBytes > bd.ImageBytes {
		m.wireOverRaw++
	}
	return res, start, end, nil
}

// maxRSSMiB reads the process's peak resident set (VmHWM).
func maxRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
