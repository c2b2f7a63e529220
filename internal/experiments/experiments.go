// Package experiments regenerates every figure and table of the paper's
// experimental study (Section 6) over the simulated cluster. Each
// Fig*/Table* function sweeps the same x-axis as the paper and returns a
// Figure whose series are the deterministic modeled runtimes (seconds) —
// see DESIGN.md §2 on the wall-clock → modeled-time substitution.
//
// cmd/parbox-bench prints the figures; bench_test.go wraps each in a
// testing.B benchmark; EXPERIMENTS.md records the measured shapes against
// the paper's.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/views"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Config scales the experiments. The zero value is usable: paper-faithful
// sweeps at DefaultNodesPerMB.
type Config struct {
	// NodesPerMB converts paper megabytes to nodes
	// (xmark.DefaultNodesPerMB when 0). Benchmarks pass smaller values to
	// keep iterations fast; the figures' shapes are scale-invariant.
	NodesPerMB int
	// Seed for the workload generator (default 1).
	Seed int64
	// Cost is the LAN/CPU model (cluster.DefaultCostModel when zero).
	Cost cluster.CostModel
	// MaxMachines bounds the x-axis of the machine sweeps (default 10,
	// the paper's cluster size).
	MaxMachines int
}

func (c Config) fill() Config {
	if c.NodesPerMB <= 0 {
		c.NodesPerMB = xmark.DefaultNodesPerMB
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cost == (cluster.CostModel{}) {
		c.Cost = cluster.DefaultCostModel()
	}
	if c.MaxMachines <= 0 {
		c.MaxMachines = 10
	}
	return c
}

// Figure is one reproduced plot: rows of x → series values (seconds,
// unless the Unit says otherwise).
type Figure struct {
	Name   string
	Title  string
	XLabel string
	Unit   string
	Series []string
	Rows   []Row
}

// Row is one x position of a figure.
type Row struct {
	X      float64
	Values map[string]float64
}

// String renders the figure as an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteByte('\n')
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-14.4g", r.X)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %14.4f", r.Values[s])
		}
		b.WriteByte('\n')
	}
	if f.Unit != "" {
		fmt.Fprintf(&b, "(values in %s)\n", f.Unit)
	}
	return b.String()
}

// Get returns a value from the figure (helper for assertions).
func (f *Figure) Get(x float64, series string) (float64, bool) {
	for _, r := range f.Rows {
		if r.X == x {
			v, ok := r.Values[series]
			return v, ok
		}
	}
	return 0, false
}

// deployTopology builds a document per the topology, fragments it, and
// deploys it on a fresh cluster with fragment i assigned by the site
// function.
func deployTopology(cfg Config, parents []int, mbs []float64, beacons []string,
	site func(i int) frag.SiteID) (*core.Engine, *cluster.Cluster, error) {
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       cfg.Seed,
		Parents:    parents,
		MBs:        mbs,
		NodesPerMB: cfg.NodesPerMB,
		Beacons:    beacons,
	})
	if err != nil {
		return nil, nil, err
	}
	forest, err := xmark.Fragment(root, siteRoots)
	if err != nil {
		return nil, nil, err
	}
	assign := make(frag.Assignment, forest.Count())
	for i := range parents {
		assign[xmltree.FragmentID(i)] = site(i)
	}
	c := cluster.New(cfg.Cost)
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		return nil, nil, err
	}
	return eng, c, nil
}

func siteName(i int) frag.SiteID { return frag.SiteID(fmt.Sprintf("S%d", i)) }

func seconds(d time.Duration) float64 { return d.Seconds() }

// Fig7 — Experiment 1: ParBoX vs NaiveCentralized over FT1, one fragment
// per machine, cumulative size fixed at 50 MB, |QList| = 8.
func Fig7(cfg Config) (*Figure, error) {
	cfg = cfg.fill()
	prog := xpath.MustCompileString(xmark.Queries[8])
	fig := &Figure{
		Name:   "Fig. 7",
		Title:  "ParBoX vs NaiveCentralized (50MB total, |QList|=8)",
		XLabel: "machines",
		Unit:   "model-seconds",
		Series: []string{"ParBox", "Central"},
	}
	ctx := context.Background()
	for n := 1; n <= cfg.MaxMachines; n++ {
		eng, _, err := deployTopology(cfg, xmark.StarParents(n), xmark.EvenMBs(50, n), nil,
			func(i int) frag.SiteID { return siteName(i) })
		if err != nil {
			return nil, err
		}
		pb, err := eng.ParBoX(ctx, prog)
		if err != nil {
			return nil, err
		}
		ce, err := eng.NaiveCentralized(ctx, prog)
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, Row{X: float64(n), Values: map[string]float64{
			"ParBox":  seconds(pb.SimTime),
			"Central": seconds(ce.SimTime),
		}})
	}
	return fig, nil
}

// Fig8 — Experiment 1: ParBoX scalability in query size, |QList| ∈
// {2, 8, 15, 23} over the Fig. 7 sweep.
func Fig8(cfg Config) (*Figure, error) {
	cfg = cfg.fill()
	fig := &Figure{
		Name:   "Fig. 8",
		Title:  "ParBoX scalability in query size (50MB total)",
		XLabel: "machines",
		Unit:   "model-seconds",
	}
	for _, size := range xmark.QuerySizes() {
		fig.Series = append(fig.Series, fmt.Sprintf("|QList|=%d", size))
	}
	ctx := context.Background()
	for n := 1; n <= cfg.MaxMachines; n++ {
		eng, _, err := deployTopology(cfg, xmark.StarParents(n), xmark.EvenMBs(50, n), nil,
			func(i int) frag.SiteID { return siteName(i) })
		if err != nil {
			return nil, err
		}
		row := Row{X: float64(n), Values: make(map[string]float64)}
		for _, size := range xmark.QuerySizes() {
			rep, err := eng.ParBoX(ctx, xpath.MustCompileString(xmark.Queries[size]))
			if err != nil {
				return nil, err
			}
			row.Values[fmt.Sprintf("|QList|=%d", size)] = seconds(rep.SimTime)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// fig2Exp runs Experiment 2 (chain FT2, 50 MB evenly distributed) with the
// query satisfied at the fragment selected by target(n).
func fig2Exp(cfg Config, name, title string, target func(n int) int) (*Figure, error) {
	cfg = cfg.fill()
	fig := &Figure{
		Name:   name,
		Title:  title,
		XLabel: "machines",
		Unit:   "model-seconds",
		Series: []string{"ParBox", "FDParBox", "LZParBox"},
	}
	ctx := context.Background()
	for n := 1; n <= cfg.MaxMachines; n++ {
		beacons := make([]string, n)
		for i := range beacons {
			beacons[i] = xmark.BeaconName(i)
		}
		eng, _, err := deployTopology(cfg, xmark.ChainParents(n), xmark.EvenMBs(50, n), beacons,
			func(i int) frag.SiteID { return siteName(i) })
		if err != nil {
			return nil, err
		}
		prog := xpath.MustCompileString(xmark.BeaconQuery(target(n)))
		row := Row{X: float64(n), Values: make(map[string]float64)}
		for series, algo := range map[string]core.Algorithm{
			"ParBox":   core.AlgoParBoX,
			"FDParBox": core.AlgoFullDist,
			"LZParBox": core.AlgoLazy,
		} {
			rep, err := eng.Run(ctx, algo, prog)
			if err != nil {
				return nil, err
			}
			if !rep.Answer {
				return nil, fmt.Errorf("%s: beacon query unexpectedly false at n=%d", name, n)
			}
			row.Values[series] = seconds(rep.SimTime)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Fig9 — Experiment 2, query satisfied by F0.
func Fig9(cfg Config) (*Figure, error) {
	return fig2Exp(cfg, "Fig. 9", "Chain FT2, query satisfied at F0",
		func(n int) int { return 0 })
}

// Fig10 — Experiment 2, query satisfied by the deepest fragment Fn.
func Fig10(cfg Config) (*Figure, error) {
	return fig2Exp(cfg, "Fig. 10", "Chain FT2, query satisfied at Fn",
		func(n int) int { return n - 1 })
}

// Fig11 — Experiment 2, query satisfied by the middle fragment F⌈n/2⌉.
func Fig11(cfg Config) (*Figure, error) {
	return fig2Exp(cfg, "Fig. 11", "Chain FT2, query satisfied at F⌈n/2⌉",
		func(n int) int { return n / 2 })
}

// Fig12 — Experiment 3: ParBoX runtime vs data size over the natural tree
// FT3, |QList| ∈ {2, 8, 15, 23}.
func Fig12(cfg Config) (*Figure, error) {
	cfg = cfg.fill()
	fig := &Figure{
		Name:   "Fig. 12",
		Title:  "ParBoX scalability in data size (FT3)",
		XLabel: "dataset MB",
		Unit:   "model-seconds",
	}
	for _, size := range xmark.QuerySizes() {
		fig.Series = append(fig.Series, fmt.Sprintf("|QList|=%d", size))
	}
	ctx := context.Background()
	parents := xmark.FT3Parents()
	// Scales chosen so the totals sweep ≈45–160 MB as in the paper.
	for _, scale := range []float64{1.5, 2.2, 2.8, 3.5, 4.3, 5.2, 5.8, 6.5} {
		mbs := xmark.FT3MBs(scale)
		var total float64
		for _, m := range mbs {
			total += m
		}
		eng, _, err := deployTopology(cfg, parents, mbs, nil,
			func(i int) frag.SiteID { return siteName(i) })
		if err != nil {
			return nil, err
		}
		row := Row{X: total, Values: make(map[string]float64)}
		for _, size := range xmark.QuerySizes() {
			rep, err := eng.ParBoX(ctx, xpath.MustCompileString(xmark.Queries[size]))
			if err != nil {
				return nil, err
			}
			row.Values[fmt.Sprintf("|QList|=%d", size)] = seconds(rep.SimTime)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Fig13 — Experiment 4: a single site holding 50 MB split into 1..10
// fragments; ParBoX evaluation time must depend on the cumulative size
// only, not the fragment count.
func Fig13(cfg Config) (*Figure, error) {
	cfg = cfg.fill()
	prog := xpath.MustCompileString(xmark.Queries[8])
	fig := &Figure{
		Name:   "Fig. 13",
		Title:  "ParBoX on one site, 50MB in i fragments (|QList|=8)",
		XLabel: "fragments",
		Unit:   "model-seconds",
		Series: []string{"ParBox"},
	}
	ctx := context.Background()
	for n := 1; n <= cfg.MaxMachines; n++ {
		// Every fragment on the same single machine.
		eng, _, err := deployTopology(cfg, xmark.StarParents(n), xmark.EvenMBs(50, n), nil,
			func(i int) frag.SiteID { return "S0" })
		if err != nil {
			return nil, err
		}
		rep, err := eng.ParBoX(ctx, prog)
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, Row{X: float64(n), Values: map[string]float64{
			"ParBox": seconds(rep.SimTime),
		}})
	}
	return fig, nil
}

// Table4Row is one measured row of the paper's Fig. 4 summary table.
type Table4Row struct {
	Algorithm core.Algorithm
	// MaxVisitsPerSite is the highest per-site visit count observed; the
	// paper's "Visits" column (1 for ParBoX/NaiveCentralized/Hybrid,
	// card(F_Si) for the others).
	MaxVisitsPerSite int64
	// VisitsAtSharedSite is the visit count at the site storing two
	// fragments.
	VisitsAtSharedSite int64
	TotalSteps         int64
	Bytes              int64
	SimSeconds         float64
}

// Table4 measures the summary table empirically: a 6-fragment FT1 document
// over 4 sites, with one site (S3) holding two fragments, plus an extra
// nested fragment so chains exist.
func Table4(cfg Config) ([]Table4Row, error) {
	cfg = cfg.fill()
	parents := []int{-1, 0, 0, 1, 0, 1}
	mbs := xmark.EvenMBs(12, 6)
	// Fragments 4 and 5 share site S3.
	assignments := []frag.SiteID{"S0", "S1", "S2", "S1", "S3", "S3"}
	eng, c, err := deployTopology(cfg, parents, mbs, nil,
		func(i int) frag.SiteID { return assignments[i] })
	if err != nil {
		return nil, err
	}
	prog := xpath.MustCompileString(xmark.Queries[8])
	ctx := context.Background()
	var rows []Table4Row
	for _, algo := range core.Algorithms() {
		c.Metrics().Reset()
		rep, err := eng.Run(ctx, algo, prog)
		if err != nil {
			return nil, err
		}
		snap := c.Metrics().Snapshot()
		var maxVisits uint64
		for _, sm := range snap {
			maxVisits = max(maxVisits, sm.Visits)
		}
		rows = append(rows, Table4Row{
			Algorithm:          algo,
			MaxVisitsPerSite:   int64(maxVisits),
			VisitsAtSharedSite: int64(snap["S3"].Visits),
			TotalSteps:         rep.TotalSteps,
			Bytes:              rep.Bytes,
			SimSeconds:         rep.SimTime.Seconds(),
		})
	}
	return rows, nil
}

// FormatTable4 renders the measured table.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table (Fig. 4) — measured guarantees, FT1 6 fragments / 4 sites (S3 stores 2 fragments)\n")
	fmt.Fprintf(&b, "%-10s %12s %14s %14s %12s %12s\n",
		"algorithm", "max visits", "visits at S3", "total steps", "bytes", "model-sec")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %14d %14d %12d %12.4f\n",
			r.Algorithm, r.MaxVisitsPerSite, r.VisitsAtSharedSite, r.TotalSteps, r.Bytes, r.SimSeconds)
	}
	return b.String()
}

// ViewsRow is one measurement of the incremental-maintenance experiment.
type ViewsRow struct {
	DataMB        float64
	UpdateOps     int
	Bytes         int64
	Steps         int64
	SitesVisited  int
	IncrementalMS float64
	RecomputeMS   float64
}

// ViewsExp validates Section 5's cost claims empirically: maintenance
// traffic stays flat while data size grows 16× and update batches grow
// 32×, and incremental maintenance beats re-materialization.
func ViewsExp(cfg Config) ([]ViewsRow, error) {
	cfg = cfg.fill()
	ctx := context.Background()
	var rows []ViewsRow
	run := func(dataMB float64, ops int) error {
		eng, c, err := deployTopology(cfg, xmark.StarParents(4), xmark.EvenMBs(dataMB, 4), nil,
			func(i int) frag.SiteID { return siteName(i) })
		if err != nil {
			return err
		}
		for _, id := range eng.SourceTree().Sites() {
			site, _ := c.Site(id)
			views.RegisterHandlers(site, c)
		}
		prog := xpath.MustCompileString(`//item[name = "no such name"]`)
		v, err := views.Materialize(ctx, c, "S0", eng.SourceTree(), prog)
		if err != nil {
			return err
		}
		opList := make([]views.UpdateOp, ops)
		for i := range opList {
			opList[i] = views.UpdateOp{Op: views.OpInsert, Path: []int{0}, Label: "noise", Text: "n"}
		}
		t0 := time.Now()
		mc, err := v.Update(ctx, 1, opList)
		if err != nil {
			return err
		}
		incr := time.Since(t0)
		t1 := time.Now()
		if err := v.Refresh(ctx); err != nil {
			return err
		}
		refresh := time.Since(t1)
		rows = append(rows, ViewsRow{
			DataMB:        dataMB,
			UpdateOps:     ops,
			Bytes:         mc.Bytes,
			Steps:         mc.Steps,
			SitesVisited:  len(mc.SitesVisited),
			IncrementalMS: float64(incr.Microseconds()) / 1000,
			RecomputeMS:   float64(refresh.Microseconds()) / 1000,
		})
		return nil
	}
	for _, mb := range []float64{4, 16, 64} {
		if err := run(mb, 1); err != nil {
			return nil, err
		}
	}
	for _, ops := range []int{4, 32} {
		if err := run(16, ops); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatViews renders the incremental-maintenance measurements.
func FormatViews(rows []ViewsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incremental maintenance (Section 5) — star FT1, 4 fragments / 4 sites\n")
	fmt.Fprintf(&b, "%-9s %8s %10s %12s %8s %14s %14s\n",
		"data MB", "ops", "bytes", "steps", "sites", "incr ms", "recompute ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9.4g %8d %10d %12d %8d %14.3f %14.3f\n",
			r.DataMB, r.UpdateOps, r.Bytes, r.Steps, r.SitesVisited, r.IncrementalMS, r.RecomputeMS)
	}
	return b.String()
}
