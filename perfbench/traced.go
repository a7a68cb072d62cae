package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"turbulence/internal/experiments"
)

// traced is the --trace 1 run: half the time untraced passes, half traced
// ones (their wall-time ratio is the tracing overhead), then the layer
// probes, and the per-layer metrics and ledger computed from both. The
// spans are written to the work directory when the run ends.
func traced(cfg config, w workload, setups []float64) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	logf(cfg, "perfbench: %s: untraced passes for %gs, then traced passes for %gs", cfg.workload, cfg.seconds/2, cfg.seconds/2)
	plain, mem, err := measure(w, cfg.seconds/2, nil)
	if err != nil {
		return rep, err
	}
	tr := newTracer()
	passes, _, err := measure(w, cfg.seconds/2, tr)
	if err != nil {
		return rep, err
	}
	mismatched := 0
	for _, p := range append(append([]passResult(nil), plain...), passes...) {
		rep.Attempted += p.cells
		rep.Failed += p.mismatched + p.incomplete
		mismatched += p.mismatched
	}
	rep.Correct = mismatched == 0

	var cells []cellCounts
	for _, p := range passes {
		cells = append(cells, p.counts...)
	}
	logf(cfg, "perfbench: %s: probing layer unit costs", cfg.workload)
	u, err := probeLayers(cfg, tr, cells, w.wireRuns())
	if err != nil {
		return rep, err
	}
	// A workload that bypasses the paper regeneration or the dispatcher
	// still reports those layers: one traced regeneration, and one
	// dispatched pass of a small plan.
	if cfg.workload != "regenerate-paper" {
		if err := experimentSpans(cfg.seed, tr); err != nil {
			return rep, err
		}
	}
	if cfg.workload != "rerun-store" {
		if err := dispatchProbe(cfg, tr); err != nil {
			return rep, err
		}
	}

	// core
	rep.set("core.testbed_build_ms", u.buildMs, "ms")
	rep.set("core.testbed_reset_us", u.resetUs, "us")
	rep.set("core.testbeds_built", median(tr.counted("core.testbeds_built")), "count")
	rep.set("core.testbeds_reused", median(tr.counted("core.testbeds_reused")), "count")
	var shares []float64
	for _, p := range passes {
		shares = append(shares, p.busy.Seconds()/(float64(max(p.workers, 1))*p.wall.Seconds()))
	}
	rep.set("core.cell_busy_share", median(shares), "ratio")

	// eventsim and netsim: per-cell means of the deterministic counts
	mean := func(f func(c cellCounts) float64) float64 {
		if len(cells) == 0 {
			return 0
		}
		var s float64
		for _, c := range cells {
			s += f(c)
		}
		return s / float64(len(cells))
	}
	rep.set("eventsim.events_per_cell", mean(func(c cellCounts) float64 { return float64(c.events) }), "count")
	rep.set("eventsim.scheduled_per_cell", mean(func(c cellCounts) float64 { return float64(c.scheduled) }), "count")
	rep.set("eventsim.queue_peak", float64(medianPeak(cells)), "count")
	rep.set("eventsim.ns_per_event", u.nsPerEvent, "ns")
	rep.set("netsim.forwards_per_cell", mean(func(c cellCounts) float64 { return float64(c.forwards) }), "count")
	rep.set("netsim.drops_loss_per_cell", mean(func(c cellCounts) float64 { return float64(c.dropLoss) }), "count")
	rep.set("netsim.drops_full_per_cell", mean(func(c cellCounts) float64 { return float64(c.dropFull) }), "count")
	rep.set("netsim.drops_aqm_per_cell", mean(func(c cellCounts) float64 { return float64(c.dropAQM) }), "count")

	rep.set("inet.checksum_ns_per_kb", u.checksumNsPerKB, "ns")
	rep.set("inet.fragment_ns_per_datagram", u.fragmentNs, "ns")
	rep.set("inet.reassemble_ns_per_datagram", u.reassembleNs, "ns")
	rep.set("segment.append_ns_per_unit", u.appendNs, "ns")
	rep.set("segment.decode_ns_per_unit", u.decodeNs, "ns")

	rep.set("capture.records_per_cell", mean(func(c cellCounts) float64 { return float64(c.records) }), "count")
	rep.set("capture.demux_ns_per_record", u.demuxNs, "ns")
	rep.set("capture.profile_ns_per_record", u.profileNs, "ns")

	for _, id := range experiments.IDs() {
		rep.set("experiments."+id+"_s", median(durations(tr.durations("experiments."+id, false), time.Second)), "s")
	}

	rep.set("wire.gob_encode_us_per_run", u.gobEncUs, "us")
	rep.set("wire.gob_decode_us_per_run", u.gobDecUs, "us")
	rep.set("wire.json_encode_us_per_run", u.jsonEncUs, "us")
	rep.set("wire.json_decode_us_per_run", u.jsonDecUs, "us")

	openMs := u.openMs
	if d := tr.durations("resultstore.open", true); len(d) > 0 {
		openMs = median(durations(d, time.Millisecond))
	}
	rep.set("resultstore.open_ms", openMs, "ms")
	rep.set("resultstore.lookup_us", u.lookupUs, "us")
	rep.set("resultstore.insert_us", u.insertUs, "us")
	hits, misses := median(tr.counted("resultstore.hits")), median(tr.counted("resultstore.misses"))
	rep.set("resultstore.hit_ratio", hits/max(hits+misses, 1), "ratio")
	rep.set("resultstore.bytes_per_entry", u.bytesPerEntry, "bytes")

	for _, name := range []string{"lease", "complete", "shard"} {
		ms := durations(tr.durations("dispatch."+name, false), time.Millisecond)
		sort.Float64s(ms)
		rep.set("dispatch."+name+"_ms_p50", quantile(ms, 0.5), "ms")
		rep.set("dispatch."+name+"_ms_p90", quantile(ms, 0.9), "ms")
	}
	rep.set("dispatch.wait_grants", median(tr.counted("dispatch.wait_grants")), "count")
	rep.set("dispatch.retries", median(tr.counted("dispatch.retries")), "count")
	rep.set("dispatch.worker_busy_share", workerBusyShare(tr), "ratio")

	rep.set("runtime.alloc_mb_per_cell", float64(mem.alloc)/1e6/float64(max(mem.cells, 1)), "MB")
	rep.set("runtime.peak_rss_mb", mem.peakRSSMB, "MB")
	cycles, pauseMs := gcPerPass(mem, len(plain))
	rep.set("runtime.gc_cycles_per_pass", cycles, "count")
	rep.set("runtime.gc_pause_ms_per_pass", pauseMs, "ms")
	var calib []float64
	for _, p := range plain {
		calib = append(calib, float64(p.calib)/float64(time.Millisecond))
	}
	rep.set("host.calib_ms", median(calib), "ms")

	rep.set("ledger.explained_share", explainedShare(cfg.workload, u, passes, tr), "ratio")
	rep.set("trace.overhead_share", median(walls(passes))/median(walls(plain))-1, "ratio")

	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return rep, err
	}
	logf(cfg, "perfbench: spans written to %s (%d untraced, %d traced passes; set-up samples %d; nproc %d)",
		path, len(plain), len(passes), len(setups), runtime.NumCPU())
	return rep, nil
}

func walls(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// workerBusyShare is the share of the dispatched passes' wall time the
// worker spent holding a lease.
func workerBusyShare(tr *tracer) float64 {
	var shard, pass time.Duration
	for _, d := range tr.durations("dispatch.shard", false) {
		shard += d
	}
	for _, name := range []string{"pass.rerun-store", "pass.dispatch-probe"} {
		for _, d := range tr.durations(name, false) {
			pass += d
		}
	}
	if pass == 0 {
		return 0
	}
	return shard.Seconds() / pass.Seconds()
}

// explainedShare is the layer ledger: every layer's unit cost times the
// traced passes' deterministic counts, over the busy time those counts
// were measured against.
func explainedShare(workload string, u unitCosts, passes []passResult, tr *tracer) float64 {
	var predicted, measured float64 // ns
	perCell := func(c cellCounts, recordNs float64) float64 {
		return float64(c.events)*u.nsPerEvent +
			float64(c.records)*recordNs +
			float64(c.datagrams)*(u.fragmentNs+u.reassembleNs+u.appendNs+u.decodeNs) +
			c.kb*u.checksumNsPerKB
	}
	switch workload {
	case "sweep-online":
		for _, p := range passes {
			for _, c := range p.counts {
				predicted += perCell(c, u.demuxNs) + u.resetUs*1e3
			}
			measured += float64(p.busy)
		}
	case "regenerate-paper":
		// Counts of every Runner cell come from the pass's metrics sink
		// (events, records); the Table 1 cells' ratios scale records to
		// datagrams and kilobytes.
		events, records := tr.counted("sink.events"), tr.counted("sink.records")
		built, reused := tr.counted("core.testbeds_built"), tr.counted("core.testbeds_reused")
		for i, p := range passes {
			var t1 cellCounts
			for _, c := range p.counts {
				t1.records += c.records
				t1.datagrams += c.datagrams
				t1.kb += c.kb
			}
			c := cellCounts{events: uint64(events[i]), records: int(records[i])}
			if t1.records > 0 {
				c.datagrams = int(float64(t1.datagrams) / float64(t1.records) * records[i])
				c.kb = t1.kb / float64(t1.records) * records[i]
			}
			predicted += perCell(c, u.profileNs) + built[i]*u.buildMs*1e6 + reused[i]*u.resetUs*1e3
			measured += float64(p.busy)
		}
	case "rerun-store":
		lookups := float64(rerunCells)
		for _, p := range passes {
			for _, c := range p.counts {
				predicted += perCell(c, u.demuxNs) + u.buildMs*1e6 +
					(u.gobEncUs+u.gobDecUs+u.insertUs)*1e3
			}
			predicted += u.openMs*1e6 + lookups*u.lookupUs*1e3
			measured += float64(p.wall)
		}
	}
	if measured == 0 {
		return 0
	}
	return predicted / measured
}
