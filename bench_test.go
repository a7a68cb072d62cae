// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artifact, plus the DESIGN.md §4 ablations and
// substrate micro-benchmarks. Each figure bench performs the complete
// regeneration — simulated streaming runs included — so `go test -bench=.`
// reproduces the entire evaluation from scratch.
package turbulence_test

import (
	"testing"
	"time"

	"turbulence"
)

// benchExperiment runs one registered experiment per iteration with a
// fresh context (no run caching), so the bench measures full regeneration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := turbulence.NewExperimentContext(2002)
		res, err := turbulence.RunExperiment(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil || res.ID != id {
			b.Fatalf("bad result for %s", id)
		}
	}
}

func BenchmarkTable1DataSets(b *testing.B)                 { benchExperiment(b, "table1") }
func BenchmarkFig01RTTCDF(b *testing.B)                    { benchExperiment(b, "fig01") }
func BenchmarkFig02HopsCDF(b *testing.B)                   { benchExperiment(b, "fig02") }
func BenchmarkFig03PlaybackVsEncoding(b *testing.B)        { benchExperiment(b, "fig03") }
func BenchmarkFig04PacketArrivals(b *testing.B)            { benchExperiment(b, "fig04") }
func BenchmarkFig05Fragmentation(b *testing.B)             { benchExperiment(b, "fig05") }
func BenchmarkFig06PacketSizePDF(b *testing.B)             { benchExperiment(b, "fig06") }
func BenchmarkFig07NormalizedSizePDF(b *testing.B)         { benchExperiment(b, "fig07") }
func BenchmarkFig08InterarrivalPDF(b *testing.B)           { benchExperiment(b, "fig08") }
func BenchmarkFig09NormalizedInterarrivalCDF(b *testing.B) { benchExperiment(b, "fig09") }
func BenchmarkFig10BandwidthTimeline(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11BufferingRatio(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12InterleavingDelivery(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13FrameRateTimeline(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14FrameRateVsEncoding(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15FrameRateVsBandwidth(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkSec4FlowGenerator(b *testing.B)              { benchExperiment(b, "sec4") }

// Extension benches (paper §VI future work and §I/§II.D transport claim).
func BenchmarkExtensionMediaScaling(b *testing.B) { benchExperiment(b, "ext-scaling") }
func BenchmarkExtensionUDPvsTCP(b *testing.B)     { benchExperiment(b, "ext-tcp") }

// Ablation benches (DESIGN.md §4).
func BenchmarkAblationNoFragmentation(b *testing.B)   { benchExperiment(b, "ablation-nofrag") }
func BenchmarkAblationUncappedBuffering(b *testing.B) { benchExperiment(b, "ablation-uncapped") }
func BenchmarkAblationNoInterleave(b *testing.B)      { benchExperiment(b, "ablation-nointerleave") }
func BenchmarkAblationSequential(b *testing.B)        { benchExperiment(b, "ablation-sequential") }

// BenchmarkPairRun measures one complete paired streaming experiment
// (the unit of every figure above): handshake, probes, two full clip
// streams over a 15-hop path, capture and analysis.
func BenchmarkPairRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := turbulence.RunPair(2002, 2, turbulence.High)
		if err != nil {
			b.Fatal(err)
		}
		if run.Trace.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkPairRunNetem is BenchmarkPairRun through the netem scenario
// layer: once under paper-baseline (whose models are all defaults, so
// allocs/op must equal BenchmarkPairRun exactly — the zero-cost guarantee)
// and once under an impaired scenario (whose only alloc growth is the
// fixed per-testbed model construction; steady-state forwarding stays
// allocation-free, pinned by netsim's TestForwardSteadyStateAllocFree).
func BenchmarkPairRunNetem(b *testing.B) {
	for _, name := range []string{"paper-baseline", "lossy-wifi"} {
		sc, err := turbulence.FindScenario(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := turbulence.RunPairWith(2002, 2, turbulence.High,
					turbulence.Options{Scenario: sc})
				if err != nil {
					b.Fatal(err)
				}
				if run.Trace.Len() == 0 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}

// BenchmarkRunAllSequential regenerates all 13 Table 1 pair experiments on
// one core — the workload behind every all-data-set figure.
func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := turbulence.RunAll(2002)
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != 13 {
			b.Fatalf("got %d runs", len(runs))
		}
	}
}

// BenchmarkRunAllParallel is the same workload fanned out across all
// cores; results are byte-identical to the sequential run.
func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := turbulence.RunAllParallel(2002, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != 13 {
			b.Fatalf("got %d runs", len(runs))
		}
	}
}

// BenchmarkPlanStreamOnline measures the Plan/Runner engine end to end on
// the paper's full sweep: 13 pair cells declared by the default Plan,
// fanned across all cores and streamed in completion order under
// StreamProfiles, so no run ever materialises a trace — captured packets
// stream through online per-flow analyzers and the profiles come back in
// RunResult.Comparison. The runner is the shipped configuration: testbed
// reuse (the default) on the scheduler's 4-ary heap, as cmd/turbulence
// -retention stream and dispatch workers run it. Output is byte-identical
// to a fresh-testbed sweep (pinned by TestReusedMatchesFresh).
func BenchmarkPlanStreamOnline(b *testing.B) {
	plan := turbulence.NewPlan(2002)
	runner := turbulence.NewRunner(
		turbulence.WithWorkers(0),
		turbulence.WithTraceRetention(turbulence.StreamProfiles),
	)
	for i := 0; i < b.N; i++ {
		n := 0
		for res := range runner.Seq(plan) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.Comparison == nil || res.Run.Trace != nil {
				b.Fatal("retention contract violated")
			}
			n++
		}
		if n != plan.Size() {
			b.Fatalf("streamed %d cells, want %d", n, plan.Size())
		}
	}
}

// BenchmarkFlowGeneration measures the Section IV synthetic generator
// alone: one 60-second flow per iteration from a pre-fitted model.
func BenchmarkFlowGeneration(b *testing.B) {
	run, err := turbulence.RunPair(2002, 2, turbulence.High)
	if err != nil {
		b.Fatal(err)
	}
	model := turbulence.FitModel(run.WMPFlow)
	rng := turbulence.NewRNG(1)
	flow := run.WMPFlow.Flow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := turbulence.GenerateFlow(model, rng, 60*time.Second, flow)
		if tr.Len() == 0 {
			b.Fatal("empty generated trace")
		}
	}
}

// BenchmarkProfileFlow measures the turbulence analysis alone on a
// captured high-rate flow.
func BenchmarkProfileFlow(b *testing.B) {
	run, err := turbulence.RunPair(2002, 1, turbulence.High)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := turbulence.ProfileFlow(run.WMPFlow)
		if p.Packets == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkFilterMatch measures display-filter evaluation over a full
// trace.
func BenchmarkFilterMatch(b *testing.B) {
	run, err := turbulence.RunPair(2002, 1, turbulence.High)
	if err != nil {
		b.Fatal(err)
	}
	// Continuation fragments carry no transport ports, so match them by
	// address, fragment state and wire size.
	f, err := turbulence.CompileFilter("ip.dst == 130.215.10.5 && ip.contfrag && size >= 1514")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Apply(run.Trace).Len() == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkTestbedReset measures rewinding the full apparatus — network,
// hosts, hops, both stacks at six sites, capture — for reuse: the
// per-cell cost a cached sweep pays instead of construction. Compare
// against BenchmarkPairRun's first-iteration build to see the gap the
// TestbedCache closes.
func BenchmarkTestbedReset(b *testing.B) {
	tb := turbulence.NewTestbed(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Reset(int64(i + 2))
	}
}
