package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/inet"
	"turbulence/internal/wire"
)

// sweepOnline is the paper's 13-pair plan under StreamProfiles, run again
// and again on one Runner with the shipped defaults (heap scheduler,
// testbed reuse, one worker per CPU) — what a long-lived -work worker or
// a -retention stream sweep does. Each pass takes the next seed of a ring
// derived from the workload seed, so consecutive passes never replay the
// same inputs while every pass still has a reference. Seeds differ in how
// much a pass allocates (some trigger several collections per pass), so
// the ring is long enough that each run sees a similar mix of them.
type sweepOnline struct {
	seed  int64
	seeds []int64
	refs  map[int64]reference
	// runs is the first pass seed's reference batch.
	runs   []wire.Run
	runner *core.Runner
	// cells and stats collect the Runner's callbacks for the current
	// execution; the Runner invokes them before Run returns.
	cells []cellTiming
	stats core.SweepStats
}

// cellTiming is one Progress notification's execution window.
type cellTiming struct {
	start   time.Time
	elapsed time.Duration
}

// reference is the expected output of one plan: the digest of its wire
// JSON and each cell's wire JSON, for counting mismatched cells.
type reference struct {
	digest string
	cells  map[int]string
	// errs counts the cells the program failed on, with their error.
	errs int
}

// passSeeds derives the ring of pass seeds from the workload seed.
func passSeeds(seed int64) []int64 {
	out := make([]int64, 12)
	for i := range out {
		out[i] = seed*1000 + int64(i) + 1
	}
	return out
}

// referenceOf runs plan on a one-worker Runner that builds every testbed
// fresh — the configuration every optimisation is pinned equal to — and
// returns its output reference and results.
func referenceOf(plan *core.Plan) (reference, []core.RunResult, error) {
	r := core.NewRunner(core.WithWorkers(1), core.WithFreshTestbeds(), core.WithTraceRetention(core.StreamProfiles))
	res, err := runEvery(r, plan)
	if err != nil {
		return reference{}, nil, fmt.Errorf("reference run: %w", err)
	}
	ref, err := referenceFromRuns(wire.FromResults(res))
	return ref, res, err
}

// runEvery runs every cell of plan on r and returns the results in plan
// order. A cell the program fails on comes back with its error, and the
// Runner then stops starting cells (fail-fast), so runEvery runs the plan
// again without the cells already done until every cell has a result or
// an error of its own. It is for untimed work: references and warm stores.
func runEvery(r *core.Runner, plan *core.Plan) ([]core.RunResult, error) {
	var out []core.RunResult
	var done []int
	for len(out) < plan.Size() {
		res, err := r.Run(plan.Omitting(done...))
		if len(res) == 0 || (err != nil && !cellErrors(res)) {
			return out, errors.Join(err, fmt.Errorf("%d of %d cells done", len(out), plan.Size()))
		}
		for _, x := range res {
			done = append(done, x.Key.Index)
		}
		out = append(out, res...)
	}
	return core.MergeRuns(out), nil
}

// cellErrors reports whether some result carries its cell's error, which
// then explains a Runner's error.
func cellErrors(res []core.RunResult) bool {
	for _, x := range res {
		if x.Err != nil {
			return true
		}
	}
	return false
}

// referencesOf computes the references of several plans, as many at once
// as there are CPUs; each is still its own one-worker Runner.
func referencesOf(plans []*core.Plan) ([]reference, [][]core.RunResult, error) {
	refs := make([]reference, len(plans))
	results := make([][]core.RunResult, len(plans))
	errs := make([]error, len(plans))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *core.Plan) {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], results[i], errs[i] = referenceOf(p)
		}(i, p)
	}
	wg.Wait()
	return refs, results, errors.Join(errs...)
}

func referenceFromRuns(runs []wire.Run) (reference, error) {
	d, err := digestRuns(runs)
	if err != nil {
		return reference{}, err
	}
	ref := reference{digest: d, cells: make(map[int]string, len(runs))}
	for _, r := range runs {
		if r.Err != "" {
			ref.errs++
		}
		b, err := json.Marshal(r)
		if err != nil {
			return reference{}, err
		}
		ref.cells[r.Index] = string(b)
	}
	return ref, nil
}

// digestRuns hashes a batch's wire JSON.
func digestRuns(runs []wire.Run) (string, error) {
	var buf bytes.Buffer
	if err := wire.WriteJSON(&buf, runs); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// check compares a batch with the reference. mismatched counts the
// batch's cells that differ from the reference, and any difference in the
// whole batch's digest fails at least one cell. incomplete counts the
// reference's cells that did not complete: failed with the same error
// the reference run met, or missing because a failing cell stopped the
// sweep. Both are failed operations; only a mismatch is a wrong output.
func (ref reference) check(runs []wire.Run) (mismatched, incomplete int) {
	d, err := digestRuns(runs)
	if err == nil && d == ref.digest {
		return 0, ref.errs
	}
	seen := make(map[int]bool, len(runs))
	for _, r := range runs {
		seen[r.Index] = true
		b, err := json.Marshal(r)
		switch {
		case err != nil || ref.cells[r.Index] != string(b):
			mismatched++
		case r.Err != "":
			incomplete++
		}
	}
	for idx := range ref.cells {
		if !seen[idx] {
			incomplete++
		}
	}
	if mismatched == 0 && incomplete == 0 {
		mismatched = 1
	}
	return mismatched, incomplete
}

func (s *sweepOnline) prepare() error {
	s.seeds = passSeeds(s.seed)
	s.refs = make(map[int64]reference, len(s.seeds))
	plans := make([]*core.Plan, len(s.seeds))
	for i, sd := range s.seeds {
		plans[i] = core.NewPlan(sd)
	}
	refs, results, err := referencesOf(plans)
	if err != nil {
		return err
	}
	for i, sd := range s.seeds {
		s.refs[sd] = refs[i]
	}
	s.runs = wire.FromResults(results[0])
	return nil
}

func (s *sweepOnline) setupReps() int { return 5 }

// setup builds the Runner and runs the warm-up pass that builds each
// worker's testbeds; the last repetition's Runner serves the passes.
func (s *sweepOnline) setup() (time.Duration, error) {
	start := time.Now()
	r := core.NewRunner(
		core.WithWorkers(0),
		core.WithTraceRetention(core.StreamProfiles),
		core.WithProgress(func(p core.Progress) {
			s.cells = append(s.cells, cellTiming{start: p.Start, elapsed: p.Elapsed})
		}),
		core.WithSweepStats(func(sw core.SweepStats) { s.stats = sw }),
	)
	res, err := r.Run(core.NewPlan(s.seeds[0]))
	d := time.Since(start)
	if err != nil && !cellErrors(res) {
		return 0, fmt.Errorf("warm-up pass: %w", err)
	}
	if bad, _ := s.refs[s.seeds[0]].check(wire.FromResults(res)); bad != 0 {
		return 0, fmt.Errorf("warm-up pass: %w", errMismatch)
	}
	s.runner = r
	return d, nil
}

func (s *sweepOnline) pass(n int, tr *tracer) (passResult, error) {
	seed := s.seeds[(n+1)%len(s.seeds)]
	s.cells = s.cells[:0]
	start := time.Now()
	res, err := s.runner.Run(core.NewPlan(seed))
	end := time.Now()
	if err != nil && !cellErrors(res) {
		return passResult{}, fmt.Errorf("pass %d: %w", n, err)
	}
	p := passResult{
		wall:     end.Sub(start),
		cells:    len(s.refs[seed].cells),
		simCells: len(res),
		workers:  min(runtime.GOMAXPROCS(0), len(res)),
	}
	p.mismatched, p.incomplete = s.refs[seed].check(wire.FromResults(res))
	for _, c := range s.cells {
		p.cellMs = append(p.cellMs, float64(c.elapsed)/float64(time.Millisecond))
		p.busy += c.elapsed
	}
	if tr != nil {
		id := tr.add("pass.sweep-online", start, end, 0, n)
		for _, c := range s.cells {
			tr.add("core.cell", c.start, c.start.Add(c.elapsed), id, n)
		}
		tr.count(n, "core.testbeds_built", float64(s.stats.TestbedsBuilt))
		tr.count(n, "core.testbeds_reused", float64(s.stats.TestbedsReused))
		for _, r := range res {
			p.counts = append(p.counts, countsOf(r.Run, r.Comparison))
		}
	}
	return p, nil
}

func (s *sweepOnline) wireRuns() []wire.Run { return s.runs }

func (s *sweepOnline) close() {}

// countsOf extracts a simulated cell's deterministic work counts.
func countsOf(run *core.PairRun, cmp *core.Comparison) cellCounts {
	var c cellCounts
	if run != nil {
		c.events = run.Sim.EventsFired
		c.scheduled = run.Sim.TimersScheduled
		c.queuePeak = run.Sim.HeapPeak
		d, u := run.Downlink, run.Uplink
		c.forwards = d.Forwarded + u.Forwarded
		c.dropLoss = d.DroppedLoss + u.DroppedLoss
		c.dropFull = d.DroppedFull + u.DroppedFull
		c.dropAQM = d.DroppedAQM + u.DroppedAQM
	}
	if cmp != nil {
		for _, f := range []core.FlowProfile{cmp.Real, cmp.WMP} {
			c.records += f.Packets
			c.datagrams += f.Datagrams
			bytes := float64(f.Packets) * f.MeanSize
			c.kb += bytes / 1024
			if f.Datagrams > 0 {
				// Wire bytes less each packet's Ethernet and IP headers and
				// each datagram's UDP header leave the UDP payload.
				payload := int(bytes) - f.Packets*(inet.EthernetOverhead+inet.IPv4HeaderLen) - f.Datagrams*inet.UDPHeaderLen
				c.mix = append(c.mix, sizeWeight{size: max(payload/f.Datagrams, 1), weight: f.Datagrams})
			}
		}
	}
	return c
}
