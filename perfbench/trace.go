package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

// span is one traced interval, kept in memory and written out when the run
// ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNs = int64(time.Since(t.t0)) }

func (t *tracer) dur(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// durations lists every span of one name in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.EndNs-s.StartNs)))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wireSegment is the image stream's segment size (the cluster's default).
const wireSegment = 4 << 20

// stageStats is what one vanilla replay measured beside its spans.
type stageStats struct {
	dumpPages, restorePages int
	rawBytes, wireBytes     int
	allocMiB                map[string]float64 // dump, codec, restore
	stagesMs                float64            // sum of the stage spans
}

// replayVanilla performs one vanilla migration stage by stage through the
// modules' public calls, keeping every check cluster.Migrate makes, and
// traces each stage under parent. It leaves p paused on src and returns
// the monitor holding it together with the restored copy on dst; the
// caller resumes p and reaps the copy.
func replayVanilla(tr *tracer, parent int, src, dst *cluster.Node, p *kernel.Process, meta *stackmap.Metadata, workers int) (*monitor.Monitor, *kernel.Process, stageStats, error) {
	st := stageStats{allocMiB: map[string]float64{}}
	var ms0 runtime.MemStats
	allocMark := func() uint64 {
		runtime.ReadMemStats(&ms0)
		return ms0.TotalAlloc
	}
	stage := func(name string, f func() error) error {
		id := tr.start(name, parent)
		err := f()
		tr.end(id)
		st.stagesMs += ms(tr.dur(id))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	mon := monitor.New(src.K, p, meta)
	if err := stage("monitor.pause", func() error { return mon.Pause(1 << 20) }); err != nil {
		return nil, nil, st, err
	}
	var dir *criu.ImageDir
	a0 := allocMark()
	if err := stage("criu.dump", func() (err error) {
		dir, err = criu.Dump(p, criu.DumpOpts{Workers: workers})
		return err
	}); err != nil {
		return mon, nil, st, err
	}
	st.allocMiB["dump"] = float64(allocMark()-a0) / (1 << 20)
	st.dumpPages = criu.DumpedPages(dir)
	if err := stage("imgcheck.verify", func() error {
		return imgcheck.VerifyWith(dir, imgcheck.Opts{Workers: workers})
	}); err != nil {
		return mon, nil, st, err
	}
	if src.Spec.Arch != dst.Spec.Arch {
		if err := stage("core.rewrite", func() error {
			pol := core.CrossISAPolicy{Target: dst.Spec.Arch}
			return pol.Rewrite(dir, &core.Context{Binaries: src.Binaries, Workers: workers})
		}); err != nil {
			return mon, nil, st, err
		}
	}
	if err := stage("updatecheck.skew", func() error { return verifySkew(dir, src.Binaries) }); err != nil {
		return mon, nil, st, err
	}
	var blob []byte
	_ = stage("image.marshal", func() error {
		blob = dir.Marshal()
		return nil
	})
	st.rawBytes = len(blob)

	// The image stream: a 16-byte header, then per 4 MiB segment a 9-byte
	// header and the flate payload (or the raw bytes where flate would
	// not shrink them).
	type segment struct {
		payload []byte
		codec   criu.Codec
		rawLen  int
	}
	var segs []segment
	a0 = allocMark()
	if err := stage("imgproto.compress", func() error {
		for off := 0; off < len(blob) || off == 0; off += wireSegment {
			raw := blob[off:min(off+wireSegment, len(blob))]
			payload, used, err := criu.CodecFlate.Compress(raw)
			if err != nil {
				return err
			}
			segs = append(segs, segment{payload: payload, codec: used, rawLen: len(raw)})
		}
		return nil
	}); err != nil {
		return mon, nil, st, err
	}
	st.wireBytes = 16
	for _, s := range segs {
		st.wireBytes += 9 + len(s.payload)
	}
	var got []byte
	if err := stage("imgproto.decompress", func() error {
		got = make([]byte, 0, len(blob))
		for _, s := range segs {
			raw, err := s.codec.Decompress(s.payload, s.rawLen)
			if err != nil {
				return err
			}
			got = append(got, raw...)
		}
		return nil
	}); err != nil {
		return mon, nil, st, err
	}
	st.allocMiB["codec"] = float64(allocMark()-a0) / (1 << 20)
	if !bytes.Equal(got, blob) {
		return mon, nil, st, fmt.Errorf("codec round trip changed the image")
	}
	var dir2 *criu.ImageDir
	if err := stage("image.unmarshal", func() (err error) {
		dir2, err = criu.UnmarshalImageDir(got)
		return err
	}); err != nil {
		return mon, nil, st, err
	}
	var p2 *kernel.Process
	a0 = allocMark()
	if err := stage("criu.restore", func() (err error) {
		p2, err = criu.RestoreWith(dst.K, dir2, dst.Binaries, criu.RestoreOpts{Workers: workers})
		return err
	}); err != nil {
		return mon, nil, st, err
	}
	st.allocMiB["restore"] = float64(allocMark()-a0) / (1 << 20)
	st.restorePages = len(p2.AS.PopulatedPages())
	return mon, p2, st, nil
}

// verifySkew is the image-vs-binary pre-flight cluster.Migrate runs before
// shipping: the rewritten image must resolve against the exact binary the
// destination restores into.
func verifySkew(dir *criu.ImageDir, bins criu.BinaryProvider) error {
	filesRaw, ok := dir.Get("files.img")
	if !ok {
		return fmt.Errorf("image directory missing files.img")
	}
	files, err := criu.UnmarshalFiles(filesRaw)
	if err != nil {
		return err
	}
	bin, err := bins.Open(files.ExePath)
	if err != nil {
		return err
	}
	if bin.Meta == nil {
		return nil // nothing to check against, as in cluster.Migrate
	}
	return imgcheck.VerifyTargetBinary(dir, &updatecheck.Binary{
		Arch: bin.Arch, Text: bin.Text, Symbols: bin.Symbols, Meta: bin.Meta,
	})
}

// tracedVanilla replays a migration stage by stage, resumes the source,
// then times a plain cluster.Migrate of the same state, whose result the
// workload continues with. The replayed copy is reaped.
func tracedVanilla(tr *tracer, lm *layerMeter, m *migMeter, src, dst *cluster.Node, p *kernel.Process, meta *stackmap.Metadata, opts cluster.MigrateOpts) (*cluster.MigrationResult, time.Duration, error) {
	root := tr.start("migration", 0)
	defer tr.end(root)
	mon, p2, st, err := replayVanilla(tr, root, src, dst, p, meta, opts.Workers)
	if err != nil {
		return nil, 0, fmt.Errorf("stage replay %s->%s: %w", src.Spec.Name, dst.Spec.Name, err)
	}
	dst.K.Reap(p2)
	if err := mon.ResumeLocal(); err != nil {
		return nil, 0, fmt.Errorf("resume after stage replay: %w", err)
	}
	id := tr.start("cluster.migrate", root)
	res, start, end, err := m.migrate(src, dst, p, meta, opts)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	call := end.Sub(start)
	lm.add("criu.dump_pages", float64(st.dumpPages))
	lm.add("criu.restore_pages", float64(st.restorePages))
	lm.add("image.raw_kib", float64(st.rawBytes)/1024)
	lm.add("imgproto.wire_ratio", float64(st.wireBytes)/float64(st.rawBytes))
	lm.add("cluster.unattributed_ms", ms(call)-st.stagesMs)
	for _, k := range []string{"dump", "codec", "restore"} {
		lm.add("go.alloc_mib."+k, st.allocMiB[k])
	}
	return res, call, nil
}

// layerMeter gathers per-migration samples of per-layer metrics that are
// not span durations.
type layerMeter struct {
	samples map[string][]float64
}

func newLayerMeter() *layerMeter { return &layerMeter{samples: map[string][]float64{}} }

func (l *layerMeter) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }
