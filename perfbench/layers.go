package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"turbulence/internal/capture"
	"turbulence/internal/core"
	"turbulence/internal/eventsim"
	"turbulence/internal/experiments"
	"turbulence/internal/inet"
	"turbulence/internal/media"
	"turbulence/internal/resultstore"
	"turbulence/internal/segment"
	"turbulence/internal/wire"
)

// unitCosts are the per-unit layer costs the probes measure: each is the
// median of several timed repetitions of one exported call, recorded as
// spans.
type unitCosts struct {
	buildMs, resetUs                          float64
	nsPerEvent                                float64
	checksumNsPerKB, fragmentNs, reassembleNs float64
	appendNs, decodeNs                        float64
	demuxNs, profileNs                        float64
	gobEncUs, gobDecUs, jsonEncUs, jsonDecUs  float64
	openMs, lookupUs, insertUs                float64
	bytesPerEntry                             float64
}

// timeReps runs fn reps times, recording a span named name for each, and
// returns the median duration divided by per.
func timeReps(tr *tracer, name string, reps int, per float64, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		end := time.Now()
		tr.add(name, start, end, 0, -1)
		ds[i] = float64(end.Sub(start))
	}
	return median(ds) / per
}

// probeLayers measures every layer's unit cost on the workload's inputs:
// the cells' datagram size mix, their scheduler queue depth and their
// wire batch.
func probeLayers(cfg config, tr *tracer, cells []cellCounts, runs []wire.Run) (unitCosts, error) {
	var u unitCosts
	seed := cfg.seed

	u.buildMs = timeReps(tr, "core.NewTestbed", 5, 1, func() { core.NewTestbed(seed) }) / 1e6
	tb := core.NewTestbed(seed)
	i := int64(0)
	u.resetUs = timeReps(tr, "core.Testbed.Reset", 30, 1, func() { i++; tb.Reset(seed + i) }) / 1e3

	depth := medianPeak(cells)
	u.nsPerEvent = schedulerNsPerEvent(tr, depth)

	mix := sizeMix(cells)
	var err error
	if u.checksumNsPerKB, u.fragmentNs, u.reassembleNs, err = probeInet(tr, mix); err != nil {
		return u, err
	}
	u.appendNs, u.decodeNs, err = probeSegment(tr, mix)
	if err != nil {
		return u, err
	}
	if u.demuxNs, u.profileNs, err = probeCapture(tr, seed); err != nil {
		return u, err
	}
	if err := probeWire(tr, runs, &u); err != nil {
		return u, err
	}
	if err := probeStore(tr, cfg.workDir, runs, &u); err != nil {
		return u, err
	}
	return u, nil
}

// medianPeak is the median over cells of each cell's peak pending-event
// count.
func medianPeak(cells []cellCounts) int {
	xs := make([]float64, len(cells))
	for i, c := range cells {
		xs[i] = float64(c.queuePeak)
	}
	return max(int(median(xs)), 1)
}

// schedulerNsPerEvent drives a heap Scheduler holding depth
// self-rescheduling timers — the pacing pattern of the simulated senders
// — and returns the cost per fired event.
func schedulerNsPerEvent(tr *tracer, depth int) float64 {
	const events = 400_000
	args := make([]any, depth)
	for k := range args {
		args[k] = k
	}
	horizon := eventsim.Time(time.Duration(events/depth) * time.Millisecond)
	per := make([]float64, 5)
	for rep := range per {
		s := eventsim.NewScheduler()
		fired := 0
		var tick func(now eventsim.Time, arg any)
		tick = func(now eventsim.Time, arg any) {
			fired++
			k := arg.(int)
			s.AfterArg(eventsim.Duration(time.Millisecond+time.Duration(k%7)*64*time.Microsecond), "perfbench.tick", tick, arg)
		}
		for k := 0; k < depth; k++ {
			s.AfterArg(eventsim.Duration(time.Duration(k)*time.Microsecond), "perfbench.start", tick, args[k])
		}
		start := time.Now()
		if err := s.Run(horizon); err != nil {
			panic(err) // no interrupt is installed, so Run cannot fail
		}
		end := time.Now()
		tr.add("eventsim.Scheduler.Run", start, end, 0, -1)
		per[rep] = float64(end.Sub(start)) / float64(max(fired, 1))
	}
	return median(per)
}

// sizeMix pools the cells' flows into their distinct datagram sizes,
// weighted by datagram count.
func sizeMix(cells []cellCounts) []sizeWeight {
	w := map[int]int{}
	for _, c := range cells {
		for _, m := range c.mix {
			w[m.size] += m.weight
		}
	}
	out := make([]sizeWeight, 0, len(w))
	for s, n := range w {
		out = append(out, sizeWeight{size: s, weight: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].size < out[j].size })
	return out
}

// weighted averages per-size costs by the mix's weights.
func weighted(mix []sizeWeight, cost func(sizeWeight) float64) float64 {
	var sum, n float64
	for _, m := range mix {
		sum += cost(m) * float64(m.weight)
		n += float64(m.weight)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// probeInet times checksumming, fragmenting at the testbed's 1500-byte
// MTU and reassembling one datagram of each size in the mix, and weights
// the per-size costs by the mix.
func probeInet(tr *tracer, mix []sizeWeight) (checksumNsPerKB, fragmentNs, reassembleNs float64, err error) {
	const reps, inner = 5, 200
	src := inet.Endpoint{Addr: inet.Addr{10, 0, 0, 1}, Port: 4002}
	dst := inet.Endpoint{Addr: inet.Addr{10, 0, 0, 2}, Port: 4002}
	var total float64
	var scratch []*inet.Datagram
	for _, m := range mix {
		d, err := inet.BuildUDP(src, dst, 7, make([]byte, m.size))
		if err != nil {
			return 0, 0, 0, err
		}
		raw, err := d.Marshal()
		if err != nil {
			return 0, 0, 0, err
		}
		w := float64(m.weight)
		total += w
		checksumNsPerKB += w * timeReps(tr, "inet.Checksum", reps, inner*float64(len(raw))/1024, func() {
			for range inner {
				inet.Checksum(raw)
			}
		})
		fragmentNs += w * timeReps(tr, "inet.AppendFragments", reps, inner, func() {
			for range inner {
				scratch, err = inet.AppendFragments(scratch[:0], d, 1500)
			}
		})
		if err != nil {
			return 0, 0, 0, err
		}
		frags := append([]*inet.Datagram(nil), scratch...)
		r := inet.NewReassembler()
		reassembleNs += w * timeReps(tr, "inet.Reassembler.Add", reps, inner, func() {
			for range inner {
				for _, f := range frags {
					if _, e := r.Add(f); e != nil {
						err = e
					}
				}
			}
		})
		if err != nil {
			return 0, 0, 0, err
		}
	}
	if total == 0 {
		return 0, 0, 0, nil
	}
	return checksumNsPerKB / total, fragmentNs / total, reassembleNs / total, nil
}

// probeSegment times encoding and decoding one datagram's segment list
// for each size in the mix: the payload is cut into frame segments of at
// most 1 KB, as the servers pack frames into data packets.
func probeSegment(tr *tracer, mix []sizeWeight) (appendNs, decodeNs float64, err error) {
	const reps, inner = 5, 500
	var buf []byte
	var segs []segment.Segment
	appendNs = weighted(mix, func(m sizeWeight) float64 {
		list := segmentsFor(m.size)
		return timeReps(tr, "segment.AppendList", reps, inner, func() {
			for range inner {
				buf = segment.AppendList(buf[:0], list)
			}
		})
	})
	decodeNs = weighted(mix, func(m sizeWeight) float64 {
		enc := segment.EncodeList(segmentsFor(m.size))
		return timeReps(tr, "segment.DecodeListInto", reps, inner, func() {
			for range inner {
				var e error
				if segs, e = segment.DecodeListInto(segs[:0], enc); e != nil {
					err = e
				}
			}
		})
	})
	return appendNs, decodeNs, err
}

func segmentsFor(size int) []segment.Segment {
	var out []segment.Segment
	for off := 0; off < size; off += 1024 {
		n := min(1024, size-off)
		out = append(out, segment.Segment{FrameIndex: uint32(off / 1024), Length: uint16(n), Last: true})
	}
	return out
}

// probeCapture times the online analyzers on a retained capture of one
// pair run: FlowDemux.Observe fed through FlowTrace.Replay (the
// StreamProfiles path) and ProfileFlow (the retained-trace path).
func probeCapture(tr *tracer, seed int64) (demuxNs, profileNs float64, err error) {
	run, err := core.RunPair(seed, 1, media.High)
	if err != nil {
		return 0, 0, fmt.Errorf("capture probe: %w", err)
	}
	flows := []*capture.FlowTrace{run.WMPFlow, run.RealFlow}
	records := float64(run.WMPFlow.Len() + run.RealFlow.Len())
	dx := capture.NewFlowDemux()
	demuxNs = timeReps(tr, "capture.FlowTrace.Replay", 7, records, func() {
		dx.Reset()
		for _, f := range flows {
			f.Replay(dx)
		}
	})
	profileNs = timeReps(tr, "core.ProfileFlow", 7, records, func() {
		for _, f := range flows {
			core.ProfileFlow(f)
		}
	})
	return demuxNs, profileNs, nil
}

// probeWire times encoding and decoding the workload's result batch in
// both wire formats, per run.
func probeWire(tr *tracer, runs []wire.Run, u *unitCosts) error {
	const reps = 9
	n := float64(len(runs))
	var gobBuf, jsonBuf bytes.Buffer
	var err error
	u.gobEncUs = timeReps(tr, "wire.WriteGob", reps, n, func() {
		gobBuf.Reset()
		err = wire.WriteGob(&gobBuf, runs)
	}) / 1e3
	if err != nil {
		return err
	}
	u.gobDecUs = timeReps(tr, "wire.ReadGob", reps, n, func() {
		_, err = wire.ReadGob(bytes.NewReader(gobBuf.Bytes()))
	}) / 1e3
	if err != nil {
		return err
	}
	u.jsonEncUs = timeReps(tr, "wire.WriteJSON", reps, n, func() {
		jsonBuf.Reset()
		err = wire.WriteJSON(&jsonBuf, runs)
	}) / 1e3
	if err != nil {
		return err
	}
	u.jsonDecUs = timeReps(tr, "wire.ReadJSON", reps, n, func() {
		_, err = wire.ReadJSON(bytes.NewReader(jsonBuf.Bytes()))
	}) / 1e3
	return err
}

// probeStore times a result store holding the workload's batch: inserting
// every run into an empty store, reopening it, and looking every run up.
func probeStore(tr *tracer, workDir string, runs []wire.Run, u *unitCosts) error {
	dir := filepath.Join(workDir, fmt.Sprintf("store-probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	digests := make([]string, len(runs))
	for i, r := range runs {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%s/%d", r.Set, r.Class, r.Scenario, r.Seed)))
		digests[i] = hex.EncodeToString(sum[:])
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	i := 0
	u.insertUs = timeReps(tr, "resultstore.Insert", len(runs), 1, func() {
		st.Insert(digests[i], runs[i].Comparison)
		i++
	}) / 1e3
	s := st.Stats()
	u.bytesPerEntry = float64(s.Bytes) / float64(max(s.Entries, 1))
	if err := st.Close(); err != nil {
		return err
	}
	var opened *resultstore.Store
	u.openMs = timeReps(tr, "resultstore.Open", 1, 1, func() { opened, err = resultstore.Open(dir) }) / 1e6
	if err != nil {
		return err
	}
	defer opened.Close()
	const inner = 100
	u.lookupUs = timeReps(tr, "resultstore.Lookup", 7, inner*float64(len(digests)), func() {
		for range inner {
			for _, d := range digests {
				opened.Lookup(d)
			}
		}
	}) / 1e3
	return nil
}

// experimentSpans runs one traced regeneration of every experiment id,
// for workloads that do not regenerate the paper themselves.
func experimentSpans(seed int64, tr *tracer) error {
	g := &regenPaper{seed: seed, ids: experiments.IDs()}
	_, _, err := g.regenerate(0, tr, -1)
	return err
}

// gcPerPass divides the runtime's GC activity over the untraced passes.
func gcPerPass(m memDelta, passes int) (cycles, pauseMs float64) {
	p := float64(max(passes, 1))
	return float64(m.gcCycles) / p, float64(m.gcPause) / float64(time.Millisecond) / p
}
