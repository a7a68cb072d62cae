// Command perfbench is the repository benchmark. It runs one named
// workload in a closed loop for a fixed time (the next pass starts when
// the previous one finishes), checks every pass's output against a
// reference computed outside the timing, and prints the end-to-end
// metrics as one JSON object on the last line of standard output. With
// --trace 1 it instead times the passes with spans around each layer's
// exported calls, measures every layer's unit cost, and prints the
// per-layer metrics and the layer ledger.
//
// Run it from the repository root, through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload sweep-online --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	sweep-online      the paper's 13-pair plan under StreamProfiles on one long-lived Runner
//	regenerate-paper  every experiment id, exactly as the default turbulence invocation
//	rerun-store       a 52-cell dispatched rerun through a warm result store (39 hits, 13 misses)
//
// Scratch files (result stores, the span dump) go under
// .bench_build/perfbench in the working directory and are removed on exit,
// except the span dump of a traced run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"turbulence/internal/wire"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds scratch files; it is created on start.
	workDir string
	// log receives the human-readable progress and metric table.
	log io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

var workloadNames = []string{"sweep-online", "regenerate-paper", "rerun-store"}

func main() {
	cfg := config{workDir: filepath.Join(".bench_build", "perfbench"), log: os.Stderr}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the timed passes run")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run; 0 the end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload name --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of the turbulence checkout")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	printTable(cfg.log, rep)
	if err := json.NewEncoder(w).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checked units failed, some of them their output check\n", rep.Failed, rep.Attempted)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: the program failed on %d of %d units, as it did in the reference\n", rep.Failed, rep.Attempted)
	}
}

// workload is one benchmark workload. prepare computes the output
// references and any state the passes start from, outside every timing.
// setup times one repetition of the set-up the passes reuse (zero when
// the workload measures set-up inside its passes). pass runs one timed
// pass; tr is nil on untraced passes.
type workload interface {
	prepare() error
	setup() (time.Duration, error)
	setupReps() int
	pass(n int, tr *tracer) (passResult, error)
	// wireRuns is a result batch of the workload's cells, for the wire
	// and store probes.
	wireRuns() []wire.Run
	close()
}

// passResult is what one pass measured.
type passResult struct {
	wall time.Duration
	// cellMs holds the host latency of every cell the pass timed.
	cellMs []float64
	// cells is how many output units the pass checked; mismatched how
	// many of them differ from the reference, incomplete how many did not
	// complete because the program failed on them, exactly as in the
	// reference. simCells is how many plan cells the pass ran or served,
	// the denominator of the per-cell figures.
	cells, mismatched, incomplete, simCells int
	// busy is the summed cell execution time; workers how many cells
	// could run at once.
	busy    time.Duration
	workers int
	// setup is the pass's own set-up time (rerun-store), zero elsewhere.
	setup time.Duration
	// counts holds the deterministic work counts of the cells behind busy.
	counts []cellCounts
	// calib is the calibration kernel's fastest of calibReps timings
	// taken right after the pass, outside its timing: the fastest, because
	// the pass's own collector or server goroutines may still be winding
	// down during the first.
	calib time.Duration
}

// cellCounts is one simulated cell's deterministic work.
type cellCounts struct {
	events, scheduled                     uint64
	queuePeak                             int
	forwards, dropLoss, dropFull, dropAQM uint64
	// records and datagrams count the two media flows' captured wire
	// packets and application datagrams; kb their wire kilobytes.
	records, datagrams int
	kb                 float64
	// mix lists the flows' mean datagram payload sizes, with their
	// datagram counts as weights.
	mix []sizeWeight
}

type sizeWeight struct{ size, weight int }

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "sweep-online":
		return &sweepOnline{seed: cfg.seed}, nil
	case "regenerate-paper":
		return &regenPaper{seed: cfg.seed}, nil
	case "rerun-store":
		return &rerunStore{seed: cfg.seed, dir: cfg.workDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// run executes one invocation and returns its report.
func run(cfg config) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	w, err := newWorkload(cfg)
	if err != nil {
		return rep, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return rep, err
	}
	defer w.close()
	logf(cfg, "perfbench: %s seed %d: computing references", cfg.workload, cfg.seed)
	if err := w.prepare(); err != nil {
		return rep, err
	}
	// Set-up is timed from a collected heap, as the passes are (measure),
	// so the references' garbage is not collected on its clock.
	debug.FreeOSMemory()
	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		d, err := w.setup()
		if err != nil {
			return rep, err
		}
		setups = append(setups, d.Seconds())
	}
	if cfg.trace {
		return traced(cfg, w, setups)
	}
	logf(cfg, "perfbench: %s: timing passes for %gs", cfg.workload, cfg.seconds)
	passes, _, err := measure(w, cfg.seconds, nil)
	if err != nil {
		return rep, err
	}
	var walls, cellMs, calib []float64
	mismatched := 0
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		calib = append(calib, float64(p.calib)/float64(time.Millisecond))
		cellMs = append(cellMs, p.cellMs...)
		rep.Attempted += p.cells
		rep.Failed += p.mismatched + p.incomplete
		mismatched += p.mismatched
		if p.setup > 0 {
			setups = append(setups, p.setup.Seconds())
		}
	}
	rep.Correct = mismatched == 0
	sort.Float64s(cellMs)
	// Every time is scaled to the nominal host speed (calib.go).
	calibMs := median(calib)
	f := float64(calibNominal) / float64(time.Millisecond) / calibMs
	rep.set("sweep_s", f*median(walls), "s")
	rep.set("cell_ms_p50", f*quantile(cellMs, 0.5), "ms")
	rep.set("cell_ms_p90", f*quantile(cellMs, 0.9), "ms")
	rep.set("setup_s", f*median(setups), "s")
	logf(cfg, "perfbench: samples: sweep_s %d passes, cell_ms %d cells, setup_s %d set-ups, calibration %d passes", len(walls), len(cellMs), len(setups), len(calib))
	logf(cfg, "perfbench: calibration kernel %.4g ms, times scaled by %.4g; raw sweep_s %.6g s", calibMs, f, median(walls))
	return rep, nil
}

// memDelta is the runtime's allocation and GC activity over the timed
// passes.
type memDelta struct {
	peakRSSMB float64
	alloc     uint64
	cells     int
	gcCycles  uint32
	gcPause   time.Duration
}

// measure runs passes until seconds have elapsed (at least one pass) and
// reports the runtime activity they caused. It starts from a collected
// heap with the memory the references and set-up used handed back, and
// restarts the resident-set high-water mark, so the mark read afterwards
// is the passes' own peak.
func measure(w workload, seconds float64, tr *tracer) ([]passResult, memDelta, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out []passResult
	cells := 0
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		p, err := w.pass(n, tr)
		if err != nil {
			return nil, memDelta{}, err
		}
		cells += p.simCells
		p.calib = calibrate()
		for range calibReps - 1 {
			p.calib = min(p.calib, calibrate())
		}
		out = append(out, p)
	}
	runtime.ReadMemStats(&after)
	return out, memDelta{
		peakRSSMB: peakRSSMB(),
		alloc:     after.TotalAlloc - before.TotalAlloc,
		cells:     cells,
		gcCycles:  after.NumGC - before.NumGC,
		gcPause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, nil
}

func logf(cfg config, format string, args ...any) {
	fmt.Fprintf(cfg.log, format+"\n", args...)
}

func printTable(w io.Writer, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  correct=%t attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
}

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted xs; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// durations converts to the given unit, in order.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// resetPeakRSS asks the kernel to restart the process's resident-set
// high-water mark from its current resident set (clear_refs value 5). Where
// that is not permitted the mark keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

var errMismatch = errors.New("output differs from the reference")
