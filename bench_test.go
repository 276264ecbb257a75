// Package servicefridge_test is the benchmark harness: one benchmark per
// table and figure of the paper (regenerating the artifact end to end),
// ablation benchmarks for the design choices called out in DESIGN.md, and
// microbenchmarks for the hot paths of the simulator and the MCF
// calculator.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package servicefridge_test

import (
	"runtime"
	"testing"
	"time"

	"servicefridge/internal/app"
	"servicefridge/internal/cluster"
	"servicefridge/internal/core"
	"servicefridge/internal/engine"
	"servicefridge/internal/experiments"
	"servicefridge/internal/fridge"
	"servicefridge/internal/metrics"
	"servicefridge/internal/obs"
	"servicefridge/internal/orchestrator"
	"servicefridge/internal/prof"
	"servicefridge/internal/schemes"
	"servicefridge/internal/sim"
	"servicefridge/internal/telemetry"
	"servicefridge/internal/trace"
)

// sinkTables prevents dead-code elimination of experiment results.
var sinkTables []*metrics.Table

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTables = e.Run(1)
	}
	if len(sinkTables) == 0 || sinkTables[0].NumRows() == 0 {
		b.Fatalf("%s produced no data", id)
	}
}

// One benchmark per paper artifact (Table 2, Figures 3-7, Table 4,
// Figures 11-16, headline claims).
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// Extension studies (EXPERIMENTS.md "Extensions" section).
func BenchmarkExtScaleOut(b *testing.B) { benchExperiment(b, "ext-scale") }
func BenchmarkExtOpenLoop(b *testing.B) { benchExperiment(b, "ext-openloop") }
func BenchmarkExtEvents(b *testing.B)   { benchExperiment(b, "ext-events") }
func BenchmarkExtCritPath(b *testing.B) { benchExperiment(b, "ext-critpath") }
func BenchmarkExtSLO(b *testing.B)      { benchExperiment(b, "ext-slo") }

// sinkSummaries keeps BenchmarkForkedCell's results alive.
var sinkSummaries [2]metrics.Summary

// BenchmarkForkedCell measures one Figure 15 sweep cell on the study run
// every fig15 sweep forks (ServiceFridge, 25+25 workers, 5 s warmup +
// 25 s): restore the warmed snapshot, set a budget, finish, and summarize
// both regions. The run is built, warmed to WarmBarrier and snapshotted
// once, and one cell runs before the timer starts, so the allocs/op and
// ns/op ceilings in bench_gates.json gate a cell that reuses what earlier
// cells made. A cell is tens of milliseconds: CI runs this benchmark in a
// short step of its own, not in the 100000x hot-path step.
func BenchmarkForkedCell(b *testing.B) {
	budgets := []float64{1.0, 0.95, 0.90, 0.85, 0.80, 0.75}
	pools := map[string]int{"A": 25, "B": 25}
	donor := engine.Build(engine.Config{
		Seed:           1,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: budgets[0],
		MaxRequired:    engine.CalibrateMaxRequired(engine.Config{Seed: 1, PoolWorkers: pools, Duration: 20 * time.Second}),
		PoolWorkers:    pools,
		Warmup:         5 * time.Second,
		Duration:       25 * time.Second,
	})
	donor.Engine.RunUntil(donor.WarmBarrier())
	snap := donor.Snapshot()
	cell := func(frac float64) {
		donor.Restore(snap)
		donor.SetBudgetFraction(frac)
		donor.Finish()
		sinkSummaries = [2]metrics.Summary{donor.Summary("A"), donor.Summary("B")}
	}
	cell(budgets[len(budgets)-1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell(budgets[i%len(budgets)])
	}
	if sinkSummaries[0].Count == 0 {
		b.Fatal("the cell completed no region-A request")
	}
}

// ---------------------------------------------------------------------
// Parallel experiment executor: sequential vs parallel regeneration of
// the full paper registry (EXPERIMENTS.md "Runtime & parallelism").

func benchRegistry(b *testing.B, workers int) {
	b.Helper()
	prev := experiments.Parallelism()
	experiments.SetParallelism(workers)
	defer experiments.SetParallelism(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunAll(experiments.All(), 1, func(r experiments.RunResult) {
			sinkTables = r.Tables
		})
	}
	if len(sinkTables) == 0 {
		b.Fatal("registry produced no data")
	}
}

// BenchmarkRegistrySequential regenerates every paper artifact one run at
// a time — the pre-parallelism executor path.
func BenchmarkRegistrySequential(b *testing.B) { benchRegistry(b, 1) }

// BenchmarkRegistryParallel fans the same registry across GOMAXPROCS
// workers; output tables are byte-identical to the sequential pass.
func BenchmarkRegistryParallel(b *testing.B) { benchRegistry(b, runtime.GOMAXPROCS(0)) }

// ---------------------------------------------------------------------
// Ablation benchmarks: each reports the region-A mean response time (ms)
// at an 80% budget so the contribution of individual ServiceFridge design
// choices is visible in the -bench output.

func ablationConfig(seed uint64) engine.Config {
	return engine.Config{
		Seed:           seed,
		Scheme:         engine.ServiceFridge,
		BudgetFraction: 0.8,
		PoolWorkers:    map[string]int{"A": 25, "B": 25},
		Warmup:         5 * time.Second,
		Duration:       15 * time.Second,
	}
}

func runAblation(b *testing.B, tune func(*fridge.Fridge), startup time.Duration) {
	b.Helper()
	b.ReportAllocs()
	var meanA, meanB float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig(1)
		cfg.StartupDelay = startup
		res := engine.Build(cfg)
		if tune != nil {
			tune(res.Fridge)
		}
		res.Finish()
		meanA = metrics.Ms(res.Summary("A").Mean)
		meanB = metrics.Ms(res.Summary("B").Mean)
	}
	b.ReportMetric(meanA, "meanA-ms")
	b.ReportMetric(meanB, "meanB-ms")
}

// BenchmarkAblationFull is the reference: the complete ServiceFridge.
func BenchmarkAblationFull(b *testing.B) { runAblation(b, nil, 0) }

// BenchmarkAblationNoBeta removes the QoS-power variance coefficient from
// MCF (criticality from duration and call times only).
func BenchmarkAblationNoBeta(b *testing.B) {
	runAblation(b, func(f *fridge.Fridge) { f.Calculator().IgnoreBeta = true }, 0)
}

// BenchmarkAblationStaticIndegree freezes the dynamic factor: MCF computed
// from a fixed 1:1 region mix instead of the live indegree counters.
func BenchmarkAblationStaticIndegree(b *testing.B) {
	runAblation(b, func(f *fridge.Fridge) {
		f.LoadOverride = map[string]float64{"A": 1, "B": 1}
	}, 0)
}

// BenchmarkAblationNoMigration keeps MCF-driven zone frequencies but never
// moves containers: services stay wherever round-robin put them.
func BenchmarkAblationNoMigration(b *testing.B) {
	runAblation(b, func(f *fridge.Fridge) { f.MigrateServices = false }, 0)
}

// BenchmarkAblationSlowMigration charges two seconds of container startup
// per migration (the paper's fast start-new-then-kill-old strategy vs a
// slow one).
func BenchmarkAblationSlowMigration(b *testing.B) {
	runAblation(b, nil, 2*time.Second)
}

// ---------------------------------------------------------------------
// Microbenchmarks for the substrate hot paths.

// BenchmarkEngineEvents measures raw event throughput of the DES core.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.Schedule(time.Microsecond, tick)
	eng.Run()
}

// BenchmarkEngineCalendar measures a Schedule+Step cycle against a standing
// event population — the pure calendar cost of the value-typed 4-ary heap.
// Steady state is allocation-free (gated via bench_gates.json).
func BenchmarkEngineCalendar(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := sim.Handler(func() {})
	eng.Grow(1024)
	for i := 0; i < 512; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Millisecond, fn)
		eng.Step()
	}
}

// BenchmarkEngineCalendar24 measures the same cycle at the population the
// simulator runs at: 24 pending events (fig15 holds 8–31 at 99% of its
// heap pops), each new one due a pseudo-random delay in [0, 1 s) ahead,
// the shape of sfbench's sim.calendar_ns probe. At this size the heap is
// two levels deep and the earliest child of a family is a coin toss, so
// this is the case siftDown's branch-free tournament is for. Steady state
// is allocation-free (gated via bench_gates.json).
func BenchmarkEngineCalendar24(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRNG(1)
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(int(time.Second)))
	}
	eng := sim.NewEngine(1)
	fn := sim.Handler(func() {})
	eng.Grow(64)
	for i := 0; i < 24; i++ {
		eng.Schedule(delays[i], fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(delays[i%len(delays)], fn)
		eng.Step()
	}
}

// BenchmarkEngineTimerChurn measures the cancellable-timer cycle: arm,
// cancel, and reclaim-at-pop through the generation-counter slot table.
func BenchmarkEngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := sim.Handler(func() {})
	eng.Grow(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := eng.After(time.Millisecond, fn)
		tm.Stop()
		eng.Step()
	}
}

// BenchmarkEngineHop measures a Hop+Step cycle with about 32 hops pending
// in the FIFO lane — the executor's constant network hop, which bypasses
// the heap. Steady state is allocation-free (gated via bench_gates.json).
func BenchmarkEngineHop(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	fn := sim.Handler(func() {})
	eng.Grow(64)
	for i := 0; i < 32; i++ {
		eng.Hop(time.Duration(i)*time.Microsecond, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Hop(100*time.Microsecond, fn)
		eng.Step()
	}
}

// benchCollector returns a collector warmed to its allocation-free steady
// state: stores pre-grown and a finished trace ready for reuse.
func benchCollector(extra int) *trace.Collector {
	col := trace.NewCollector()
	col.KeepSpans = false
	warm := col.StartTrace("A", 0)
	for i := 0; i < 4096; i++ {
		col.AddSpan(warm, trace.Span{Service: "svc", Host: "h", Submit: sim.Time(i), Start: sim.Time(i), End: sim.Time(i + 1)})
	}
	col.FinishTrace(warm, 5000)
	col.Grow(extra)
	return col
}

// BenchmarkCollectorAddSpan measures recording one span on an open trace.
func BenchmarkCollectorAddSpan(b *testing.B) {
	col := benchCollector(16)
	tr := col.StartTrace("A", 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(6000 + i)
		col.AddSpan(tr, trace.Span{Service: "svc", Host: "h", Submit: at, Start: at, End: at + 1})
	}
}

// BenchmarkCollectorTraceLifecycle measures a whole request's collector
// cost: StartTrace, two spans, FinishTrace into the finish-ordered stores.
func BenchmarkCollectorTraceLifecycle(b *testing.B) {
	b.ReportAllocs()
	var col *trace.Collector
	for i := 0; i < b.N; i++ {
		if i%(1<<20) == 0 {
			b.StopTimer()
			col = benchCollector(1 << 20) // re-grow outside the timed region
			b.StartTimer()
		}
		at := sim.Time(6000 + i)
		tr := col.StartTrace("A", at)
		col.AddSpan(tr, trace.Span{Service: "svc", Host: "h", Submit: at, Start: at, End: at + 1})
		col.AddSpan(tr, trace.Span{Service: "svc", Host: "h", Submit: at + 1, Start: at + 1, End: at + 2})
		col.FinishTrace(tr, at+2)
	}
}

// BenchmarkCollectorKeepSpans measures a retained request: StartTrace, 15
// spans, and FinishTrace copying them into the span slab under KeepSpans.
// Every 1<<14 requests the collector is rebuilt and re-grown outside the
// timed region, which bounds the retained spans to about 16 MB.
func BenchmarkCollectorKeepSpans(b *testing.B) {
	const batch = 1 << 14
	b.ReportAllocs()
	var col *trace.Collector
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			col = trace.NewCollector()
			warm := col.StartTrace("A", 0)
			col.FinishTrace(warm, 1)
			col.Grow(batch)
			b.StartTimer()
		}
		at := sim.Time(6000 + i)
		tr := col.StartTrace("A", at)
		for k := 0; k < 15; k++ {
			t := at + sim.Time(k)
			col.AddSpan(tr, trace.Span{Service: "svc", Host: "h", Submit: t, Start: t, End: t + 1})
		}
		col.FinishTrace(tr, at+16)
	}
}

// BenchmarkCollectorResponseAfter measures the post-warmup latency query —
// one binary search over the finish-ordered store instead of the old
// full-scan-and-rebuild.
func BenchmarkCollectorResponseAfter(b *testing.B) {
	col := trace.NewCollector()
	col.KeepSpans = false
	col.Grow(100_000)
	for i := 0; i < 100_000; i++ {
		tr := col.StartTrace("A", sim.Time(i*1000))
		col.FinishTrace(tr, sim.Time(i*1000+500))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var out []time.Duration
	for i := 0; i < b.N; i++ {
		out = col.ResponseAfter("A", 50_000_000)
	}
	if len(out) == 0 {
		b.Fatal("query returned nothing")
	}
}

// BenchmarkCritPath measures folding one real request trace into the blame
// accumulator: parent inference, critical-path walk, and per-service
// decomposition. Steady state is allocation-free (gated via
// bench_gates.json).
func BenchmarkCritPath(b *testing.B) {
	res := engine.Run(engine.Config{
		Seed:        1,
		PoolWorkers: map[string]int{"A": 10, "B": 10},
		Warmup:      time.Second,
		Duration:    3 * time.Second,
		KeepSpans:   true,
	})
	traces := res.Collector.Traces()
	if len(traces) == 0 {
		b.Fatal("fixture run produced no traces")
	}
	acc := trace.NewBlameAccumulator(engine.SlowdownFromSpec(res.Config.Spec))
	for _, tr := range traces {
		acc.Observe(tr) // warm scratch and per-service entries
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Observe(traces[i%len(traces)])
	}
}

// BenchmarkStreamingHistogram measures one bounded-memory histogram insert
// (gated allocation-free via bench_gates.json).
func BenchmarkStreamingHistogram(b *testing.B) {
	var h metrics.StreamingHistogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != uint64(b.N) {
		b.Fatalf("count = %d, want %d", h.Count(), b.N)
	}
}

// BenchmarkTelemetrySample measures one telemetry sampling tick — window
// digests for every bound series, probe reads, SLO evaluation, ring
// append — on a realistically bound instance. Gated allocation-free via
// bench_gates.json: the sampler runs inside the deterministic sim loop,
// so it must never disturb the heap.
func BenchmarkTelemetrySample(b *testing.B) {
	var now sim.Time
	tel := telemetry.New(telemetry.Options{})
	spec := app.TwoRegionStudy()
	err := tel.Bind(telemetry.Bindings{
		Now:        func() sim.Time { return now },
		Scheme:     "ServiceFridge",
		Regions:    spec.RegionNames(),
		Services:   spec.ServiceNames(),
		Cluster:    func() (float64, float64, float64, bool) { return 330, 400, 0.7, true },
		Migrations: func() uint64 { return 5 },
	})
	if err != nil {
		b.Fatal(err)
	}
	regions := spec.RegionNames()
	services := spec.ServiceNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := time.Duration(10+i%40) * time.Millisecond
		tel.ObserveResponse(regions[i%len(regions)], d)
		tel.ObserveExec(i%len(services), d/8)
		now += sim.Time(time.Second)
		tel.Sample()
	}
	if tel.Len() == 0 {
		b.Fatal("no samples recorded")
	}
}

// BenchmarkServerJobChurn measures job submit/complete cycles through the
// frequency-scalable core pool, recycling one Job the way the executor
// recycles its pooled invocations. Gated allocation-free via
// bench_gates.json.
func BenchmarkServerJobChurn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	srv := cluster.NewServer(eng, "n1", cluster.RoleNormalWorker, 6)
	done := 0
	job := &cluster.Job{Tag: "x", Demand: 100 * time.Microsecond}
	job.OnDone = func() {
		done++
		if done < b.N {
			srv.Submit(job)
		}
	}
	b.ResetTimer()
	srv.Submit(job)
	eng.Run()
}

// BenchmarkServerQueueChurn measures job completions on a 6-core server
// whose queue stays 64 jobs deep: each completion dequeues the head and
// resubmits the finished job at the tail, recycling the same 70 Jobs.
// Dequeueing is O(1), so the depth costs nothing per op. Gated
// allocation-free via bench_gates.json.
func BenchmarkServerQueueChurn(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	srv := cluster.NewServer(eng, "n1", cluster.RoleNormalWorker, 6)
	jobs := make([]cluster.Job, 6+64)
	// One full turn of the queue warms the calendar and the timer
	// freelist to their steady size before timing starts.
	done, warm := 0, len(jobs)
	for i := range jobs {
		j := &jobs[i]
		j.Tag = "x"
		j.Demand = time.Duration(100+i) * time.Microsecond
		j.OnDone = func() {
			done++
			if done <= warm+b.N {
				srv.Submit(j)
			}
		}
	}
	for i := range jobs {
		srv.Submit(&jobs[i])
	}
	for done < warm {
		eng.Step()
	}
	b.ResetTimer()
	for done < warm+b.N {
		eng.Step()
	}
	b.StopTimer()
	if srv.QueueLen() != 64 {
		b.Fatalf("queue depth %d, want 64", srv.QueueLen())
	}
}

// BenchmarkCounterObserveComplete measures the MCF indegree counters'
// per-request bookkeeping (one arrival and one completion of a region-A
// request). Gated allocation-free via bench_gates.json.
func BenchmarkCounterObserveComplete(b *testing.B) {
	c := core.NewCounter(core.BuildGraph(app.TwoRegionStudy()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe("A")
		c.Complete("A")
	}
}

// BenchmarkMCFCalculation measures one full MCF evaluation over the study
// graph on dense vectors — the per-tick cost of the MCF Calculator. Gated
// allocation-free via bench_gates.json.
func BenchmarkMCFCalculation(b *testing.B) {
	b.ReportAllocs()
	spec := app.TwoRegionStudy()
	g := core.BuildGraph(spec)
	calc := core.NewCalculator(g)
	load := make([]float64, g.NumRegions())
	g.LoadVec(map[string]float64{"A": 30, "B": 20}, load)
	out := make([]float64, spec.NumServices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.MCFVec(load, 1.8, out)
	}
	if out[spec.Service("ticketinfo").ID()] == 0 {
		b.Fatal("no MCF computed")
	}
}

// BenchmarkMCFClassification measures the three-level classification on
// dense vectors, which evaluates MCF at two frequencies. Gated
// allocation-free via bench_gates.json.
func BenchmarkMCFClassification(b *testing.B) {
	b.ReportAllocs()
	spec := app.TwoRegionStudy()
	g := core.BuildGraph(spec)
	cl := core.NewClassifier(core.NewCalculator(g))
	load := make([]float64, g.NumRegions())
	g.LoadVec(map[string]float64{"A": 30, "B": 20}, load)
	out := make([]core.Criticality, spec.NumServices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.ClassifyVec(load, out)
	}
	if out[spec.Service("ticketinfo").ID()] != core.High {
		b.Fatal("no classification")
	}
}

// BenchmarkRequestExecution measures simulating one isolated Advanced
// Search request (259 microservice invocations) on the default testbed:
// its network hops, placements, jobs and spans, with no meter, control or
// telemetry ticks in the calendar. Gated allocation-free via
// bench_gates.json.
func BenchmarkRequestExecution(b *testing.B) {
	eng := sim.NewEngine(1)
	orch := orchestrator.New(cluster.DefaultTestbed(eng))
	spec := app.TwoRegionStudy()
	orch.DeployRoundRobin(spec.PlacedServices())
	col := trace.NewCollector()
	col.KeepSpans = false
	x := app.NewExecutor(eng, spec, orch, col, eng.RNG().Stream("exec"))
	x.Launch("A", nil) // warm the executor's pools and placement handles
	eng.Run()
	col.Grow(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Launch("A", nil)
		eng.Run()
	}
	if x.Completed() != uint64(b.N)+1 {
		b.Fatalf("completed %d of %d", x.Completed(), b.N+1)
	}
}

// BenchmarkLedgerTick measures one run-ledger tick: recording a typical
// control interval's worth of cause-bearing records, each built in the
// loop and folded into the pending accumulator at emit (inside
// Recorder.Emit, on the deterministic sim loop), and sealing the entry
// against state and RNG digests. Gated allocation-free via
// bench_gates.json; the ring's chunks, the zone-member arena and the
// entries slice grow amortized, which rounds to 0 allocs/op.
func BenchmarkLedgerTick(b *testing.B) {
	rec := obs.NewRecorder(1024)
	rec.Bind(obs.Names{Servers: []string{"server1", "server3", "server5"}, Services: []string{"seat"}})
	led := obs.NewLedger()
	rec.SetLedger(led)
	warm := []int32{0, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * sim.Time(time.Second)
		rec.EmitZone(at, obs.ZoneWarm, warm, obs.Cause{Signal: obs.MCFDemand, Value: 1.3, Bound: 3.2})
		rec.Emit(at, obs.Record{Kind: obs.FreqChange, Server: 1, Zone: obs.ZoneWarm, Value: 1.8,
			Cause: obs.Cause{Signal: obs.BudgetFit, Value: 315.2, Bound: 400}})
		rec.Emit(at, obs.Record{Kind: obs.Migration, Svc: 0, From: 0, To: 2, Zone: obs.ZoneWarm,
			Cause: obs.Cause{Signal: obs.MCFRank, Value: 0.41, Bound: 3.2}})
		led.Seal(at, uint64(i), uint64(i)*3)
	}
	if led.Len() != b.N {
		b.Fatalf("sealed %d of %d ticks", led.Len(), b.N)
	}
}

// BenchmarkPhaseScope measures one Enter/Exit pair on a live profiler —
// the cost phase profiling adds around every instrumented simulator
// scope when -profile is on. Gated allocation-free via bench_gates.json:
// the scope body runs inside the deterministic sim loop, so it must
// never disturb the heap.
func BenchmarkPhaseScope(b *testing.B) {
	p := prof.NewDetached("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Enter(prof.Exec)
		p.Exit()
	}
	b.StopTimer()
	for _, pt := range p.Totals() {
		if pt.Phase == prof.Exec && pt.Count != int64(b.N) {
			b.Fatalf("counted %d scopes, want %d", pt.Count, b.N)
		}
	}
}

// BenchmarkPhaseScopeDisabled measures the same pair on the nil
// (disabled) profiler — the cost every run pays when -profile is off,
// which is two nil checks.
func BenchmarkPhaseScopeDisabled(b *testing.B) {
	var p *prof.Profiler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Enter(prof.Exec)
		p.Exit()
	}
}

// BenchmarkFridgeTick measures one control interval of the ServiceFridge
// controller (MCF, classification, zoning, placement, Algorithm 1 and
// frequency planning) under load, with the event recorder and run ledger
// a control-plane session attaches: every tick records its zones, zone
// power and DVFS steps and hashes them into the ledger. Gated
// allocation-free via bench_gates.json (the ring's chunks grow
// amortized).
func BenchmarkFridgeTick(b *testing.B) {
	b.ReportAllocs()
	cfg := ablationConfig(1)
	cfg.Events = obs.NewRecorder(0)
	cfg.Ledger = obs.NewLedger()
	res := engine.Build(cfg)
	res.Engine.RunFor(6 * time.Second) // reach steady state
	f := res.Fridge
	f.Tick() // settle placements against the frozen meter readings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Tick()
	}
}

// benchmarkSchemeTick measures one control interval of a comparator
// scheme: the study app runs under it at a 0.75 budget for 6 s, then a
// fresh instance built on that run's context (without an event recorder)
// ticks against the frozen meter readings. Gated allocation-free via
// bench_gates.json.
func benchmarkSchemeTick(b *testing.B, name engine.SchemeName, mk func(*schemes.Context, *app.Spec) schemes.Scheme) {
	b.ReportAllocs()
	cfg := ablationConfig(1)
	cfg.Scheme = name
	cfg.BudgetFraction = 0.75
	res := engine.Build(cfg)
	res.Engine.RunFor(6 * time.Second)
	ctx := &schemes.Context{Cluster: res.Cluster, Meter: res.Meter, Budget: res.Budget, Orch: res.Orch}
	s := mk(ctx, res.Config.Spec)
	s.Tick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}

func BenchmarkCappingTick(b *testing.B) {
	benchmarkSchemeTick(b, engine.Capping, func(c *schemes.Context, _ *app.Spec) schemes.Scheme { return schemes.NewCapping(c) })
}

func BenchmarkPFirstTick(b *testing.B) {
	benchmarkSchemeTick(b, engine.PFirst, func(c *schemes.Context, _ *app.Spec) schemes.Scheme { return schemes.NewPFirst(c) })
}

func BenchmarkTFirstTick(b *testing.B) {
	benchmarkSchemeTick(b, engine.TFirst, func(c *schemes.Context, spec *app.Spec) schemes.Scheme { return schemes.NewTFirst(c, spec) })
}
