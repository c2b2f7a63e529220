package parbox

// One benchmark per figure/table of the paper (Figs. 7–13, the Fig. 4
// summary table, the Section 5 maintenance costs) plus micro-benchmarks of
// the core procedures. The figure benchmarks run the full sweep of the
// corresponding experiment at a reduced data scale (the shapes are
// scale-invariant; cmd/parbox-bench runs the calibrated full scale) and
// report the headline quantity of each figure via b.ReportMetric.
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/frag"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// benchConfig keeps sweeps fast: 50 paper-MB ≈ 10k nodes.
func benchConfig() experiments.Config {
	return experiments.Config{NodesPerMB: 200, Seed: 1, MaxMachines: 8}
}

func BenchmarkFig7ParBoXvsCentral(b *testing.B) {
	var lastSpeedup float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		pb, _ := fig.Get(8, "ParBox")
		ce, _ := fig.Get(8, "Central")
		lastSpeedup = ce / pb
	}
	b.ReportMetric(lastSpeedup, "central/parbox@8")
}

func BenchmarkFig8QuerySizeScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		q2, _ := fig.Get(8, "|QList|=2")
		q23, _ := fig.Get(8, "|QList|=23")
		ratio = q23 / q2
	}
	b.ReportMetric(ratio, "q23/q2@8")
}

func BenchmarkFig9LazyEqualsParBoX(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		pb, _ := fig.Get(8, "ParBox")
		lz, _ := fig.Get(8, "LZParBox")
		ratio = lz / pb
	}
	b.ReportMetric(ratio, "lazy/parbox@8")
}

func BenchmarkFig10LazyDeepTarget(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		pb, _ := fig.Get(8, "ParBox")
		lz, _ := fig.Get(8, "LZParBox")
		ratio = lz / pb
	}
	b.ReportMetric(ratio, "lazy/parbox@8")
}

func BenchmarkFig11LazyMidTarget(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		pb, _ := fig.Get(8, "ParBox")
		lz, _ := fig.Get(8, "LZParBox")
		ratio = lz / pb
	}
	b.ReportMetric(ratio, "lazy/parbox@8")
}

func BenchmarkFig12DataScaling(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig12(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		first := fig.Rows[0].Values["|QList|=8"]
		last := fig.Rows[len(fig.Rows)-1].Values["|QList|=8"]
		growth = last / first
	}
	b.ReportMetric(growth, "t(160MB)/t(45MB)")
}

func BenchmarkFig13FragmentCountInvariance(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		min, max := 1e18, 0.0
		for _, r := range fig.Rows {
			v := r.Values["ParBox"]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		spread = max / min
	}
	b.ReportMetric(spread, "max/min")
}

func BenchmarkTable4Guarantees(b *testing.B) {
	var parboxVisits float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == core.AlgoParBoX {
				parboxVisits = float64(r.MaxVisitsPerSite)
			}
		}
	}
	b.ReportMetric(parboxVisits, "parbox-max-visits")
}

func BenchmarkViewsMaintenance(b *testing.B) {
	var bytes float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ViewsExp(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		bytes = float64(rows[len(rows)-1].Bytes)
	}
	b.ReportMetric(bytes, "maintenance-bytes")
}

// --- micro-benchmarks of the core procedures ---------------------------

// benchDoc caches a mid-size document per size to keep setup out of the
// timed loop.
var benchDocs = map[int]*Node{}

func benchDoc(nodes int) *Node {
	if d, ok := benchDocs[nodes]; ok {
		return d
	}
	d := xmark.Generate(xmark.Spec{Seed: 7, MB: float64(nodes) / float64(xmark.DefaultNodesPerMB)})
	benchDocs[nodes] = d
	return d
}

func BenchmarkBottomUp(b *testing.B) {
	for _, nodes := range []int{1000, 10000, 100000} {
		doc := benchDoc(nodes)
		prog := xpath.MustCompileString(xmark.Queries[8])
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.BottomUp(doc, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(doc.Size()), "nodes")
		})
	}
}

func BenchmarkBottomUpQuerySizes(b *testing.B) {
	doc := benchDoc(10000)
	for _, size := range xmark.QuerySizes() {
		prog := xpath.MustCompileString(xmark.Queries[size])
		b.Run(fmt.Sprintf("qlist=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.BottomUp(doc, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFragmented builds a deployed star system for end-to-end benches.
func benchFragmented(b *testing.B, n int, nodes int) *core.Engine {
	b.Helper()
	root, sites, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       3,
		Parents:    xmark.StarParents(n),
		MBs:        xmark.EvenMBs(float64(nodes)/float64(xmark.DefaultNodesPerMB), n),
		NodesPerMB: xmark.DefaultNodesPerMB,
	})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := xmark.Fragment(root, sites)
	if err != nil {
		b.Fatal(err)
	}
	assign := frag.Assignment{}
	for i := 0; i < n; i++ {
		assign[FragmentID(i)] = frag.SiteID(fmt.Sprintf("S%d", i))
	}
	c := cluster.New(cluster.DefaultCostModel())
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkCoalescedBurst mirrors the harness's serve/coalesced-64q
// scenario in a profileable shape: 64 concurrent subscribers sharing six
// standing queries against an 8-site star, served by the coalescing
// scheduler. `go test -bench CoalescedBurst -cpuprofile cpu.out .` is the
// way to see where a scheduler round actually spends its time.
func BenchmarkCoalescedBurst(b *testing.B) {
	root, sites, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       3,
		Parents:    xmark.StarParents(8),
		MBs:        xmark.EvenMBs(float64(8*10000)/float64(xmark.DefaultNodesPerMB), 8),
		NodesPerMB: xmark.DefaultNodesPerMB,
	})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := xmark.Fragment(root, sites)
	if err != nil {
		b.Fatal(err)
	}
	assign := frag.Assignment{}
	for i := 0; i < 8; i++ {
		assign[FragmentID(i)] = frag.SiteID(fmt.Sprintf("S%d", i))
	}
	sys, err := Deploy(forest, assign, WithCoalescedServing(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	srcs := []string{
		xmark.NamedQueries["BQ1-person-lookup"],
		xmark.NamedQueries["BQ2-bidder-increase"],
		xmark.NamedQueries["BQ3-closed-price"],
		xmark.NamedQueries["BQ5-absence"],
		xmark.NamedQueries["BQ6-region-items"],
		xmark.Queries[8],
	}
	subs := make([]*Prepared, 64)
	for i := range subs {
		q, err := Prepare(srcs[i%len(srcs)])
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = q
	}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, q := range subs {
			wg.Add(1)
			go func(q *Prepared) {
				defer wg.Done()
				<-start
				if _, err := sys.Exec(ctx, q); err != nil {
					b.Error(err)
				}
			}(q)
		}
		close(start)
		wg.Wait()
	}
}

func BenchmarkParBoXEndToEnd(b *testing.B) {
	eng := benchFragmented(b, 8, 80000)
	prog := xpath.MustCompileString(xmark.Queries[8])
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ParBoX(ctx, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullDistEndToEnd(b *testing.B) {
	eng := benchFragmented(b, 8, 80000)
	prog := xpath.MustCompileString(xmark.Queries[8])
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.FullDist(ctx, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectEndToEnd(b *testing.B) {
	eng := benchFragmented(b, 8, 80000)
	sp, err := xpath.CompileSelectString(`//item[location = "Kenya"]/name`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SelectParBoX(ctx, sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectRepeated quantifies what reusing a Prepared buys: a
// caller that prepares the path query on every call re-parses and
// re-compiles it each time, while Exec on one Prepared reuses the
// automaton cached at first use — repeated calls perform zero
// recompilation. The spread shows up directly in allocs/op.
func BenchmarkSelectRepeated(b *testing.B) {
	sys, _ := deployPortfolio(b)
	ctx := context.Background()
	const src = `//stock[code = "YHOO"]`

	b.Run("prepare-each-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Exec(ctx, MustPrepare(src), WithMode(ModeSelect)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		q := MustPrepare(src)
		if _, err := sys.Exec(ctx, q, WithMode(ModeSelect)); err != nil {
			b.Fatal(err) // warm the cache outside the timed loop
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Exec(ctx, q, WithMode(ModeSelect)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCountRepeated is the aggregation twin of BenchmarkSelectRepeated.
func BenchmarkCountRepeated(b *testing.B) {
	sys, _ := deployPortfolio(b)
	ctx := context.Background()
	const src = `//stock`

	b.Run("prepare-each-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Exec(ctx, MustPrepare(src), WithMode(ModeCount)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		q := MustPrepare(src)
		if _, err := sys.Exec(ctx, q, WithMode(ModeCount)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Exec(ctx, q, WithMode(ModeCount)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSolve(b *testing.B) {
	// A 32-fragment random fragmentation: the coordinator's third phase.
	root, sites, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       5,
		Parents:    xmark.ChainParents(32),
		MBs:        xmark.EvenMBs(4, 32),
		NodesPerMB: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := xmark.Fragment(root, sites)
	if err != nil {
		b.Fatal(err)
	}
	assign := frag.AssignAll(forest, "S")
	st, err := frag.BuildSourceTree(forest, assign)
	if err != nil {
		b.Fatal(err)
	}
	prog := xpath.MustCompileString(xmark.Queries[23])
	triplets, _, err := eval.EvaluateAll(forest, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := eval.Solve(st, triplets, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTripletCodec(b *testing.B) {
	doc := NewElement("r", "")
	for i := 0; i < 8; i++ {
		doc.AppendChild(NewElement("a", ""))
	}
	forest := NewForest(doc)
	for i := 0; i < 4; i++ {
		if _, err := forest.Split(doc.Children[i]); err != nil {
			b.Fatal(err)
		}
	}
	prog := xpath.MustCompileString(xmark.Queries[23])
	fr, _ := forest.Fragment(0)
	t, _, err := eval.BottomUp(fr.Root, prog)
	if err != nil {
		b.Fatal(err)
	}
	enc := t.Encode()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := t.Encode()
			if _, err := eval.DecodeTriplet(buf); err != nil {
				b.Fatal(err)
			}
			_ = buf
		}
		b.ReportMetric(float64(len(enc)), "triplet-bytes")
	})
	// The coordinator-shaped path: a round's triplets decode into one
	// pooled arena, the one the solve then runs in.
	b.Run("shared-arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := t.Encode()
			a := eval.GetArena()
			if _, err := eval.DecodeTripletInto(a, buf); err != nil {
				b.Fatal(err)
			}
			eval.PutArena(a)
		}
		b.ReportMetric(float64(len(enc)), "triplet-bytes")
	})
}

func BenchmarkQueryCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.CompileString(xmark.Queries[23]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := xmark.Generate(xmark.Spec{Seed: int64(i), MB: 1})
		if doc.Label != "site" {
			b.Fatal("bad doc")
		}
	}
}

// BenchmarkAblationHashConsing measures what subquery sharing saves: the
// same self-similar query compiled with and without hash-consing, then
// evaluated with Procedure bottomUp. (DESIGN.md §5, ablations.)
func BenchmarkAblationHashConsing(b *testing.B) {
	src := `//item[quantity] && //item[quantity] && //person[address/city = "Seoul"] && //person[address/city = "Seoul"]`
	e, err := xpath.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	doc := benchDoc(10000)
	for _, cons := range []bool{true, false} {
		prog := xpath.CompileWithOptions(e, xpath.CompileOptions{DisableHashCons: !cons})
		name := "shared"
		if !cons {
			name = "duplicated"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.BottomUp(doc, prog); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(prog.QListSize()), "qlist-size")
		})
	}
}

// BenchmarkAblationPlacement compares replica-placement strategies on a
// size-skewed replicated deployment (the Section 8 replication remark).
func BenchmarkAblationPlacement(b *testing.B) {
	root, sites, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       9,
		Parents:    xmark.StarParents(5),
		MBs:        []float64{0.5, 8, 2, 2, 0.5},
		NodesPerMB: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := xmark.Fragment(root, sites)
	if err != nil {
		b.Fatal(err)
	}
	replicas := core.ReplicaMap{
		0: {"S0", "S1"},
		1: {"S1", "S2", "S3"},
		2: {"S2", "S0"},
		3: {"S3", "S1"},
		4: {"S0", "S2", "S3"},
	}
	c := cluster.New(cluster.DefaultCostModel())
	base, err := core.DeployReplicated(c, forest, replicas, core.PlaceFirst)
	if err != nil {
		b.Fatal(err)
	}
	prog := xpath.MustCompileString(xmark.Queries[8])
	ctx := context.Background()
	for _, strategy := range []core.PlacementStrategy{core.PlaceFirst, core.PlaceMinSites, core.PlaceBalanced} {
		eng, err := base.Replan(forest, replicas, strategy)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strategy.String(), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				rep, err := eng.ParBoX(ctx, prog)
				if err != nil {
					b.Fatal(err)
				}
				sim = rep.SimTime.Seconds()
			}
			b.ReportMetric(sim, "model-sec")
		})
	}
}

// BenchmarkSelectionExtension runs the Section 8 selection/aggregation
// experiment, reporting distributed selection's traffic advantage.
func BenchmarkSelectionExtension(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SelectionExp(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		ratio = float64(r.CentralBytes) / float64(r.SelectBytes)
	}
	b.ReportMetric(ratio, "central/select-bytes")
}
