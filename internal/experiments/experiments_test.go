package experiments

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// testConfig keeps compute dominant over latency (as at the paper's scale)
// while staying fast: 50 paper-MB ≈ 20k nodes.
func testConfig() Config {
	return Config{NodesPerMB: 400, Seed: 1, MaxMachines: 8}
}

func TestFig7Shape(t *testing.T) {
	fig, err := Fig7(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 8 {
		t.Fatalf("%d rows", len(fig.Rows))
	}
	// ParBoX benefits from parallelism: the 8-machine run beats the
	// 1-machine run clearly.
	p1, _ := fig.Get(1, "ParBox")
	p8, _ := fig.Get(8, "ParBox")
	if p8 >= p1*0.7 {
		t.Errorf("no parallel speedup: ParBox(1)=%v ParBox(8)=%v", p1, p8)
	}
	// NaiveCentralized stays above ParBoX once data actually moves.
	for _, n := range []float64{2, 4, 8} {
		pb, _ := fig.Get(n, "ParBox")
		ce, _ := fig.Get(n, "Central")
		if ce <= pb {
			t.Errorf("n=%v: Central (%v) not above ParBox (%v)", n, ce, pb)
		}
	}
	// And the centralized baseline never drops below its own evaluation
	// lower bound (the 1-machine runtime), as the paper notes.
	c1, _ := fig.Get(1, "Central")
	for _, r := range fig.Rows {
		if r.Values["Central"] < c1*0.95 {
			t.Errorf("Central at n=%v (%v) fell below the eval lower bound %v", r.X, r.Values["Central"], c1)
		}
	}
	if !strings.Contains(fig.String(), "ParBox") {
		t.Error("rendering broken")
	}
}

func TestFig8Shape(t *testing.T) {
	fig, err := Fig8(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Runtime grows with |QList| at every machine count, and every series
	// keeps the parallel speedup.
	for _, r := range fig.Rows {
		q2 := r.Values["|QList|=2"]
		q23 := r.Values["|QList|=23"]
		if q23 <= q2 {
			t.Errorf("n=%v: |QList|=23 (%v) not above |QList|=2 (%v)", r.X, q23, q2)
		}
	}
	for _, s := range fig.Series {
		v1, _ := fig.Get(1, s)
		v8, _ := fig.Get(8, s)
		if v8 >= v1 {
			t.Errorf("%s: no speedup (%v → %v)", s, v1, v8)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// All three algorithms nearly identical when the query resolves at F0
	// (Lazy stops at depth ≤ 1; the others parallelize fully).
	for _, r := range fig.Rows {
		pb := r.Values["ParBox"]
		lz := r.Values["LZParBox"]
		fd := r.Values["FDParBox"]
		if lz > pb*1.8 {
			t.Errorf("n=%v: LZParBox (%v) should track ParBox (%v) for a depth-0 query", r.X, lz, pb)
		}
		if fd > pb*2.0 {
			t.Errorf("n=%v: FDParBox (%v) far above ParBox (%v)", r.X, fd, pb)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	fig, err := Fig10(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The Lazy runtime grows with depth (sequential descent) and clearly
	// exceeds ParBoX at the deepest point, while ParBoX ≈ FullDist.
	n := float64(8)
	pb, _ := fig.Get(n, "ParBox")
	lz, _ := fig.Get(n, "LZParBox")
	fd, _ := fig.Get(n, "FDParBox")
	if lz <= 1.5*pb {
		t.Errorf("LZParBox (%v) should clearly exceed ParBox (%v) when the target is F_n", lz, pb)
	}
	if fd > 2*pb {
		t.Errorf("FDParBox (%v) should track ParBox (%v)", fd, pb)
	}
	// Lazy is monotone-ish in n: the n=8 runtime exceeds the n=2 one.
	lz2, _ := fig.Get(2, "LZParBox")
	if lz <= lz2 {
		t.Errorf("LZParBox did not grow with depth: %v → %v", lz2, lz)
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := testConfig()
	fig, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The middle-target runtime sits between ParBox and the deep-target
	// Lazy runtime.
	n := float64(8)
	pb, _ := fig.Get(n, "ParBox")
	lzMid, _ := fig.Get(n, "LZParBox")
	lzDeep, _ := deep.Get(n, "LZParBox")
	if lzMid < pb*0.9 {
		t.Errorf("LZParBox mid-target (%v) below ParBox (%v)?", lzMid, pb)
	}
	if lzMid > lzDeep*1.1 {
		t.Errorf("LZParBox mid-target (%v) above deep-target (%v)?", lzMid, lzDeep)
	}
}

func TestFig12Shape(t *testing.T) {
	fig, err := Fig12(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Linear-ish growth in data size for every query size; bigger queries
	// cost more on the same data.
	for _, s := range fig.Series {
		first := fig.Rows[0].Values[s]
		last := fig.Rows[len(fig.Rows)-1].Values[s]
		if last <= first {
			t.Errorf("%s: no growth with data size (%v → %v)", s, first, last)
		}
		// Roughly proportional: x grows ~3.8×; runtime should grow at
		// least 2× and at most ~8×.
		ratio := last / first
		if ratio < 2 || ratio > 8 {
			t.Errorf("%s: growth ratio %v, expected roughly linear", s, ratio)
		}
	}
	for _, r := range fig.Rows {
		if r.Values["|QList|=23"] <= r.Values["|QList|=2"] {
			t.Errorf("x=%v: larger query not more expensive", r.X)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	fig, err := Fig13(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Near-constant across fragment counts.
	min, max := fig.Rows[0].Values["ParBox"], fig.Rows[0].Values["ParBox"]
	for _, r := range fig.Rows {
		v := r.Values["ParBox"]
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max > min*1.15 {
		t.Errorf("Fig13 not flat: min %v, max %v", min, max)
	}
}

func TestTable4Guarantees(t *testing.T) {
	rows, err := Table4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := make(map[core.Algorithm]Table4Row)
	for _, r := range rows {
		byAlgo[r.Algorithm] = r
	}
	// ParBoX: every site visited exactly once, even the one storing two
	// fragments.
	if r := byAlgo[core.AlgoParBoX]; r.MaxVisitsPerSite != 1 || r.VisitsAtSharedSite != 1 {
		t.Errorf("parbox visits: %+v", r)
	}
	// NaiveDistributed and FullDist visit the shared site once per
	// fragment stored there.
	if r := byAlgo[core.AlgoNaiveDistributed]; r.VisitsAtSharedSite != 2 {
		t.Errorf("distrib visits at shared site = %d, want 2", r.VisitsAtSharedSite)
	}
	if r := byAlgo[core.AlgoFullDist]; r.VisitsAtSharedSite < 2 {
		t.Errorf("fulldist visits at shared site = %d, want ≥ 2", r.VisitsAtSharedSite)
	}
	// Communication: centralized ships data, dwarfing ParBoX.
	if byAlgo[core.AlgoNaiveCentralized].Bytes < 5*byAlgo[core.AlgoParBoX].Bytes {
		t.Errorf("central bytes %d vs parbox %d: data shipping should dominate",
			byAlgo[core.AlgoNaiveCentralized].Bytes, byAlgo[core.AlgoParBoX].Bytes)
	}
	if s := FormatTable4(rows); !strings.Contains(s, "parbox") {
		t.Error("table rendering broken")
	}
}

func TestViewsExp(t *testing.T) {
	rows, err := ViewsExp(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Traffic flat across 16× data growth (rows 0..2) up to varint width.
	if d := rows[2].Bytes - rows[0].Bytes; d > 8 || d < -8 {
		t.Errorf("maintenance traffic grew with data: %d vs %d", rows[0].Bytes, rows[2].Bytes)
	}
	// Only one site visited, always.
	for _, r := range rows {
		if r.SitesVisited != 1 {
			t.Errorf("update visited %d sites, want 1", r.SitesVisited)
		}
	}
	// Update-batch growth (row 3 → 4: 4 ops → 32 ops) adds only the
	// request's own op encoding, nothing data-dependent: under 1 KB.
	if d := rows[4].Bytes - rows[3].Bytes; d > 1024 {
		t.Errorf("maintenance traffic grew with update size by %d bytes", d)
	}
	// Localized recomputation: steps are bounded by one fragment's share.
	if rows[2].Steps >= 2*rows[0].Steps*16 {
		t.Errorf("steps grew superlinearly: %d vs %d", rows[0].Steps, rows[2].Steps)
	}
	if s := FormatViews(rows); !strings.Contains(s, "incr ms") {
		t.Error("views rendering broken")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.fill()
	if cfg.NodesPerMB <= 0 || cfg.Seed == 0 || cfg.MaxMachines != 10 {
		t.Errorf("fill() = %+v", cfg)
	}
	if cfg.Cost == (cluster.CostModel{}) {
		t.Error("cost model not defaulted")
	}
}

func TestSelectionExp(t *testing.T) {
	rows, err := SelectionExp(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Distributed selection must beat shipping the document, by a lot.
		if r.SelectBytes*10 > r.CentralBytes {
			t.Errorf("%s: select bytes %d not well below central %d", r.Query, r.SelectBytes, r.CentralBytes)
		}
		// Counting is never meaningfully more traffic than selecting (for
		// zero-match queries the count's fixed integer costs a couple of
		// bytes over the empty path list).
		if r.CountBytes > r.SelectBytes+16 {
			t.Errorf("%s: count bytes %d above select bytes %d", r.Query, r.CountBytes, r.SelectBytes)
		}
		// And when many nodes match, counting is strictly cheaper.
		if r.Matches > 100 && r.CountBytes >= r.SelectBytes {
			t.Errorf("%s: %d matches but count bytes %d ≥ select bytes %d",
				r.Query, r.Matches, r.CountBytes, r.SelectBytes)
		}
	}
	// The no-match query selects nothing, and every row's visit 2 is one
	// call per remote site (3 of the 4 sites), whatever it selects.
	last := rows[len(rows)-1]
	if last.Matches != 0 {
		t.Fatalf("no-match query matched %d", last.Matches)
	}
	for _, r := range rows {
		if r.Pass2Visits != 3 {
			t.Errorf("%s: %d visit-2 calls, want 3 (one per remote site)", r.Query, r.Pass2Visits)
		}
	}
	if s := FormatSelection(rows); !strings.Contains(s, "SQ1") {
		t.Error("rendering broken")
	}
}
