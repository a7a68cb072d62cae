package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/experiments"
	"turbulence/internal/obs"
	"turbulence/internal/wire"
)

// regenPaper is exactly the default turbulence invocation without the
// printing: a fresh experiment context on all CPUs under RetainTraces,
// then every registered experiment id in order. Nothing carries over
// between passes, so every testbed is built cold, as the CLI pays on
// every run.
type regenPaper struct {
	seed int64
	ids  []string
	// ref holds each id's result digest from a one-worker regeneration.
	ref   map[string]string
	cells []cellTiming
	// runs is the Table 1 cells of the last traced pass as a wire batch.
	runs []wire.Run
}

func (g *regenPaper) prepare() error {
	g.ids = experiments.IDs()
	ref, _, err := g.regenerate(1, nil, -1)
	if err != nil {
		return fmt.Errorf("reference regeneration: %w", err)
	}
	g.ref = ref
	return nil
}

func (g *regenPaper) setupReps() int { return 101 }

// setup times what a regeneration starts from before its first
// experiment: the context and one cold testbed, the apparatus every
// experiment builds anew.
func (g *regenPaper) setup() (time.Duration, error) {
	start := time.Now()
	ctx := experiments.NewContext(g.seed).SetParallel(0)
	tb := core.NewTestbed(g.seed)
	d := time.Since(start)
	if ctx == nil || tb.Net == nil {
		return 0, fmt.Errorf("set-up built nothing")
	}
	return d, nil
}

// regenFailed prefixes the error text an experiment's output is when the
// program fails on it.
const regenFailed = "error: "

// regenerate runs every experiment id on a fresh context with the given
// parallelism and returns each id's result digest. With a tracer it
// records one span per id under a pass span and feeds a metrics sink, so
// the traced pass also counts its testbeds and simulator work.
func (g *regenPaper) regenerate(workers int, tr *tracer, pass int) (map[string]string, *experiments.Context, error) {
	g.cells = g.cells[:0]
	ctx := experiments.NewContext(g.seed).SetParallel(workers).SetProgress(func(p core.Progress) {
		g.cells = append(g.cells, cellTiming{start: p.Start, elapsed: p.Elapsed})
	})
	var sink *obs.Sink
	if tr != nil {
		sink = obs.NewSink(obs.NewRegistry())
		ctx.SetMetrics(sink)
	}
	out := make(map[string]string, len(g.ids))
	passStart := time.Now()
	var spans []span
	for _, id := range g.ids {
		start := time.Now()
		res, err := experiments.Run(ctx, id)
		end := time.Now()
		spans = append(spans, span{Name: "experiments." + id, start: start, end: end})
		if err != nil {
			// The program failed on this experiment: its error is its
			// output, checked against the reference's like a result.
			out[id] = regenFailed + err.Error()
			continue
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", id, err)
		}
		sum := sha256.Sum256(b)
		out[id] = hex.EncodeToString(sum[:])
	}
	if tr != nil {
		parent := tr.add("pass.regenerate-paper", passStart, time.Now(), 0, pass)
		for _, s := range spans {
			tr.add(s.Name, s.start, s.end, parent, pass)
		}
		for _, c := range g.cells {
			if c.elapsed > 0 {
				tr.add("core.cell", c.start, c.start.Add(c.elapsed), parent, pass)
			}
		}
		tr.count(pass, "core.testbeds_built", float64(sink.TestbedsBuilt.Value()))
		tr.count(pass, "core.testbeds_reused", float64(sink.TestbedsReused.Value()))
		tr.count(pass, "sink.events", float64(sink.EventsFired.Value()))
		tr.count(pass, "sink.records", float64(sink.Packets.Value()))
	}
	return out, ctx, nil
}

func (g *regenPaper) pass(n int, tr *tracer) (passResult, error) {
	start := time.Now()
	got, ctx, err := g.regenerate(0, tr, n)
	end := time.Now()
	if err != nil {
		return passResult{}, fmt.Errorf("pass %d: %w", n, err)
	}
	p := passResult{
		wall:     end.Sub(start),
		cells:    len(g.ids),
		simCells: len(g.cells),
		workers:  runtime.GOMAXPROCS(0),
	}
	for _, id := range g.ids {
		switch {
		case got[id] != g.ref[id]:
			p.mismatched++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %s: result %.60q, reference %.60q\n", n, id, got[id], g.ref[id])
		case strings.HasPrefix(got[id], regenFailed):
			p.incomplete++
		}
	}
	// Cells run through a Runner carry their execution window; one-off
	// ablation runs report completion only and are left out of the
	// latency sample.
	for _, c := range g.cells {
		if c.elapsed > 0 {
			p.cellMs = append(p.cellMs, float64(c.elapsed)/float64(time.Millisecond))
			p.busy += c.elapsed
		}
	}
	if tr != nil {
		// The Table 1 runs are cached in the context: their counts are
		// the per-cell figures, read after the pass's timing.
		runs, err := ctx.All()
		if err != nil {
			// A Table 1 pair the program fails on leaves no counts.
			return p, nil
		}
		g.runs = g.runs[:0]
		for i, r := range runs {
			cmp := core.Compare(r)
			p.counts = append(p.counts, countsOf(r, &cmp))
			key := core.PairKey{Set: r.Set, Class: r.Class}
			g.runs = append(g.runs, wire.Run{Index: i, Set: r.Set, Class: r.Class.String(), Seed: core.SeedFor(g.seed, key), Comparison: &cmp})
		}
	}
	return p, nil
}

func (g *regenPaper) wireRuns() []wire.Run { return g.runs }

func (g *regenPaper) close() {}
