package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"turbulence/internal/core"
	"turbulence/internal/dispatch"
	"turbulence/internal/netem"
	"turbulence/internal/resultstore"
	"turbulence/internal/wire"
)

// rerunScenarios is the rerun plan's scenario axis; the warm store holds
// the first three columns, so every pass finds exactly 39 hits and 13
// misses (fewer hits if the program fails on a warm cell, which then
// misses and fails again).
var rerunScenarios = []string{"dsl", "transatlantic", "cable", "lossy-wifi"}

const (
	rerunCells = 52
	rerunHits  = 39
)

// rerunRing is how many plan seeds a rerun-store run cycles through. The
// 13 simulated cells' cost differs by seed by up to a fifth, so one seed
// per run would make the run-to-run spread depend on which seeds a set of
// runs draws.
const rerunRing = 4

// rerunStore is a superset rerun through the result store: an HTTP
// coordinator on 127.0.0.1 serving the 13 pairs × 4 scenarios plan from
// a copy of a store warmed with the first three scenarios, and one worker
// running its shards with one Runner worker per CPU (the -work default).
// Hits are served at carve time; the 13 misses are leased, simulated,
// shipped by gob and inserted. Pass n serves the plan of ring seed
// n mod rerunRing, each with its own warm store and reference.
type rerunStore struct {
	seed int64
	dir  string

	cases []rerunCase
	// refRuns is the first ring seed's reference batch.
	refRuns []wire.Run
}

// rerunCase is one ring seed's plan, reference and warm store.
type rerunCase struct {
	plan    *core.Plan
	ref     reference
	warmDir string
	// hits is how many cells the warm store holds.
	hits int
	// missCounts holds the simulated cells' work counts, taken from the
	// reference run (the counts are deterministic per cell and seed).
	missCounts []cellCounts
}

func (w *rerunStore) prepare() error {
	scs := make([]*netem.Scenario, len(rerunScenarios))
	for i, name := range rerunScenarios {
		sc, err := netem.Find(name)
		if err != nil {
			return err
		}
		scs[i] = sc
	}
	seeds := passSeeds(w.seed)[:rerunRing]
	plans := make([]*core.Plan, len(seeds))
	for i, sd := range seeds {
		plans[i] = core.NewPlan(sd).UnderScenarios(scs...)
	}
	refs, results, err := referencesOf(plans)
	if err != nil {
		return err
	}
	w.refRuns = wire.FromResults(results[0])
	for i, sd := range seeds {
		c := rerunCase{plan: plans[i], ref: refs[i]}
		for _, r := range results[i] {
			if r.Key.ScenarioIndex == len(scs)-1 {
				c.missCounts = append(c.missCounts, countsOf(r.Run, r.Comparison))
			}
		}
		// Warm a store with the first three scenarios through the
		// store-backed Runner path, all CPUs.
		c.warmDir = filepath.Join(w.dir, fmt.Sprintf("rerun-warm-%d-%d", os.Getpid(), i))
		w.cases = append(w.cases, c)
		hits, err := warmStore(c.warmDir, core.NewPlan(sd).UnderScenarios(scs[:len(scs)-1]...))
		if err != nil {
			return err
		}
		w.cases[i].hits = hits
		if plans[i].Size() != rerunCells || hits > rerunHits {
			return fmt.Errorf("rerun plan of seed %d: %d cells, %d warm, want %d and at most %d", sd, plans[i].Size(), hits, rerunCells, rerunHits)
		}
	}
	return nil
}

// warmStore runs plan into a new result store at dir and returns how many
// cells it holds: every cell the program does not fail on.
func warmStore(dir string, plan *core.Plan) (int, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		return 0, err
	}
	res, runErr := runEvery(core.NewRunner(core.WithWorkers(0), core.WithTraceRetention(core.StreamProfiles), core.WithResultStore(st)), plan)
	closeErr := st.Close()
	if err := errors.Join(runErr, closeErr); err != nil {
		return 0, fmt.Errorf("warming the store: %w", err)
	}
	ok := 0
	for _, r := range res {
		if r.Err == nil {
			ok++
		}
	}
	if n := st.Stats().Entries; n != ok {
		return 0, fmt.Errorf("warm store holds %d entries, want %d", n, ok)
	}
	return ok, nil
}

// rerun-store measures set-up inside each pass: opening the store and
// starting the coordinator and worker, up to the first grant.
func (w *rerunStore) setupReps() int                { return 0 }
func (w *rerunStore) setup() (time.Duration, error) { return 0, nil }

func (w *rerunStore) pass(n int, tr *tracer) (passResult, error) {
	c := &w.cases[n%len(w.cases)]
	dir := filepath.Join(w.dir, fmt.Sprintf("rerun-pass-%d", os.Getpid()))
	if err := copyDir(c.warmDir, dir); err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	d, err := dispatchRun(c.plan, dir, tr, n, "pass.rerun-store")
	if err != nil {
		return passResult{}, fmt.Errorf("pass %d: %w", n, err)
	}
	p := passResult{
		wall:     d.end.Sub(d.start),
		cells:    len(c.ref.cells),
		simCells: c.plan.Size(),
		workers:  1,
	}
	p.mismatched, p.incomplete = c.ref.check(d.runs)
	if !d.firstGrant.IsZero() {
		p.setup = d.firstGrant.Sub(d.start)
	}
	if s := d.stats; s.Hits != uint64(c.hits) || s.Misses != uint64(rerunCells-c.hits) || s.CorruptFrames != 0 {
		// The store did not serve the plan as warmed: every cell of the
		// pass fails.
		p.mismatched = p.cells
	}
	for _, sd := range d.shards {
		p.cellMs = append(p.cellMs, float64(sd)/float64(time.Millisecond))
		p.busy += sd
	}
	if tr != nil {
		tr.count(n, "resultstore.hits", float64(d.stats.Hits))
		tr.count(n, "resultstore.misses", float64(d.stats.Misses))
		p.counts = c.missCounts
	}
	return p, nil
}

func (w *rerunStore) wireRuns() []wire.Run { return w.refRuns }

// dispatchProbe is one dispatched run of a small plan on an empty store,
// so workloads that bypass the dispatcher still report its round trips.
func dispatchProbe(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("dispatch-probe-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	plan := core.NewPlan(cfg.seed).ForPairs(core.AllPairs()[:4]...)
	ref, _, err := referenceOf(plan)
	if err != nil {
		return err
	}
	d, err := dispatchRun(plan, dir, tr, -1, "pass.dispatch-probe")
	if err != nil {
		return fmt.Errorf("dispatch probe: %w", err)
	}
	if bad, _ := ref.check(d.runs); bad != 0 {
		return fmt.Errorf("dispatch probe: %w", errMismatch)
	}
	return nil
}

// dispatched is what one dispatched run observed.
type dispatched struct {
	runs                           []wire.Run
	start, opened, firstGrant, end time.Time
	// shards holds each lease's grant-to-acknowledged-completion time.
	shards []time.Duration
	stats  resultstore.Stats
}

// firstCellError is the error Coordinator.Wait reports for runs' first
// failed cell, or "" when none failed.
func firstCellError(runs []wire.Run) string {
	for _, r := range runs {
		if r.Err != "" {
			return fmt.Sprintf("dispatch: cell %d (set %d/%s): %s", r.Index, r.Set, r.Class, r.Err)
		}
	}
	return ""
}

// dispatchRun serves plan from the store in storeDir: an HTTP coordinator
// on 127.0.0.1 (dispatch.New + Handler + Wait, so no linger is timed) and
// one worker pulling through a timedQueue with one Runner worker per CPU.
// The window from opening the store to Wait's return is timed.
func dispatchRun(plan *core.Plan, storeDir string, tr *tracer, pass int, name string) (dispatched, error) {
	q := &timedQueue{granted: make(map[string]time.Time)}
	var d dispatched
	d.start = time.Now()
	st, err := resultstore.Open(storeDir)
	if err != nil {
		return d, err
	}
	d.opened = time.Now()
	defer st.Close()
	c, err := dispatch.New(plan, dispatch.WithResultStore(st))
	if err != nil {
		return d, err
	}
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	srv := &http.Server{Handler: c.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	q.c = dispatch.NewClient("http://" + ln.Addr().String())
	worker := dispatch.NewWorker(q, dispatch.WithRunWorkers(runtime.NumCPU()), dispatch.WithName("perfbench"))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		_, err := worker.Run(ctx)
		workerDone <- err
	}()
	runs, waitErr := c.Wait(ctx)
	d.end = time.Now()

	workerErr := <-workerDone
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	shutErr := srv.Shutdown(shutCtx)
	if err := <-served; err != http.ErrServerClosed {
		shutErr = errors.Join(shutErr, err)
	}
	if waitErr != nil && waitErr.Error() == firstCellError(runs) {
		// Wait reports the first cell the program failed on; the failed
		// cells are checked against the reference with the others.
		waitErr = nil
	}
	if err := errors.Join(waitErr, workerErr, shutErr); err != nil {
		return d, err
	}
	d.runs = runs
	d.stats = st.Stats()

	q.mu.Lock()
	defer q.mu.Unlock()
	d.firstGrant = q.firstGrant
	d.shards = q.shards
	if tr != nil {
		id := tr.add(name, d.start, d.end, 0, pass)
		tr.add("resultstore.open", d.start, d.opened, id, pass)
		for _, s := range q.calls {
			tr.add(s.Name, s.start, s.end, id, pass)
		}
		tr.count(pass, "core.testbeds_built", float64(q.built))
		tr.count(pass, "core.testbeds_reused", float64(q.reused))
		tr.count(pass, "dispatch.wait_grants", float64(q.waits))
		tr.count(pass, "dispatch.retries", float64(q.c.Retries()))
	}
	return d, nil
}

func (w *rerunStore) close() {
	for _, c := range w.cases {
		os.RemoveAll(c.warmDir)
	}
}

// timedQueue decorates the worker's HTTP client: it times every lease,
// renewal and completion, and the span from each grant to its completion
// (one shard). It forwards CompleteStats and Retries, so the worker ships
// exactly what it would through the bare client.
type timedQueue struct {
	c *dispatch.Client

	mu         sync.Mutex
	firstGrant time.Time
	granted    map[string]time.Time
	shards     []time.Duration
	waits      int
	// built and reused sum the worker's shipped testbed economy.
	built, reused int
	// calls holds the spans to record under the pass span.
	calls []span
}

func (q *timedQueue) Lease(worker string) (wire.LeaseGrant, error) {
	start := time.Now()
	g, err := q.c.Lease(worker)
	end := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if err == nil && g.LeaseID != "" {
		if q.firstGrant.IsZero() {
			q.firstGrant = end
		}
		q.granted[g.LeaseID] = end
		q.calls = append(q.calls, span{Name: "dispatch.lease", start: start, end: end})
	}
	if err == nil && g.Wait {
		q.waits++
	}
	return g, err
}

func (q *timedQueue) Renew(leaseID, worker string) error {
	start := time.Now()
	err := q.c.Renew(leaseID, worker)
	q.record("dispatch.renew", start)
	return err
}

func (q *timedQueue) Complete(leaseID string, runs []wire.Run) error {
	start := time.Now()
	err := q.c.Complete(leaseID, runs)
	q.completed(leaseID, start, nil)
	return err
}

func (q *timedQueue) CompleteStats(leaseID string, runs []wire.Run, stats *wire.WorkerStats) error {
	start := time.Now()
	err := q.c.CompleteStats(leaseID, runs, stats)
	q.completed(leaseID, start, stats)
	return err
}

func (q *timedQueue) Retries() uint64 { return q.c.Retries() }

var (
	_ dispatch.StatsQueue   = (*timedQueue)(nil)
	_ dispatch.RetryCounter = (*timedQueue)(nil)
)

func (q *timedQueue) record(name string, start time.Time) {
	end := time.Now()
	q.mu.Lock()
	q.calls = append(q.calls, span{Name: name, start: start, end: end})
	q.mu.Unlock()
}

func (q *timedQueue) completed(leaseID string, start time.Time, stats *wire.WorkerStats) {
	end := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.calls = append(q.calls, span{Name: "dispatch.complete", start: start, end: end})
	if g, ok := q.granted[leaseID]; ok {
		q.shards = append(q.shards, end.Sub(g))
		q.calls = append(q.calls, span{Name: "dispatch.shard", start: g, end: end})
	}
	if stats != nil {
		q.built += stats.TestbedsBuilt
		q.reused += stats.TestbedsReused
	}
}

// copyDir copies every regular file of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
