package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// SelectionRow is one measurement of the Section 8 selection extension:
// SelectParBoX's traffic against the ship-everything baseline a
// centralized selection would pay.
type SelectionRow struct {
	Query        string
	Matches      int64
	SelectBytes  int64
	CountBytes   int64
	CentralBytes int64 // encoded size of all remote fragments (the baseline's transfer)
	SelectSimSec float64
	Pass2Visits  int64 // visit-2 calls across sites: one per remote site, whatever depth(FT)
	SkippedFrags int
	TotalFrags   int
}

// SelectionExp measures the selection extension over a 6-fragment FT3-ish
// deployment: per named selection query, distributed selection/count
// traffic versus the centralized baseline, plus how many fragments
// contributed no selection.
func SelectionExp(cfg Config) ([]SelectionRow, error) {
	cfg = cfg.fill()
	parents := []int{-1, 0, 0, 1, 1, 2}
	mbs := xmark.EvenMBs(24, 6)
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       cfg.Seed,
		Parents:    parents,
		MBs:        mbs,
		NodesPerMB: cfg.NodesPerMB,
	})
	if err != nil {
		return nil, err
	}
	forest, err := xmark.Fragment(root, siteRoots)
	if err != nil {
		return nil, err
	}
	assign := make(frag.Assignment)
	for i := range parents {
		assign[xmltree.FragmentID(i)] = siteName(i % 4)
	}
	c := cluster.New(cfg.Cost)
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		return nil, err
	}
	// The centralized baseline ships every remote fragment once.
	var centralBytes int64
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		if assign[id] != eng.Coordinator() {
			centralBytes += int64(xmltree.EncodedSize(fr.Root))
		}
	}

	names := make([]string, 0, len(xmark.SelectionQueries))
	for name := range xmark.SelectionQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	// A query that selects nothing demonstrates fragment skipping.
	names = append(names, "SQ0-no-match")
	queries := map[string]string{"SQ0-no-match": `nothing/here`}
	for k, v := range xmark.SelectionQueries {
		queries[k] = v
	}

	ctx := context.Background()
	var rows []SelectionRow
	for _, name := range names {
		src := queries[name]
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sel, err := eng.SelectParBoX(ctx, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cnt, err := eng.CountParBoX(ctx, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if cnt.Count != int64(sel.Count) {
			return nil, fmt.Errorf("%s: count %d != selection %d", name, cnt.Count, sel.Count)
		}
		var pass2 int64
		for _, v := range sel.Visits {
			pass2 += v
		}
		// Visit 1 is one call per remote site; the rest are visit 2, which
		// also calls every remote site once — dead fragments included, as
		// it is sent before any arrival is known.
		remoteSites := len(eng.SourceTree().Sites()) - 1
		pass2 -= int64(remoteSites)
		touched := len(sel.Paths)
		rows = append(rows, SelectionRow{
			Query:        name,
			Matches:      cnt.Count,
			SelectBytes:  sel.Bytes,
			CountBytes:   cnt.Bytes,
			CentralBytes: centralBytes,
			SelectSimSec: sel.SimTime.Seconds(),
			Pass2Visits:  pass2,
			SkippedFrags: forest.Count() - touched,
			TotalFrags:   forest.Count(),
		})
	}
	return rows, nil
}

// FormatSelection renders the selection experiment.
func FormatSelection(rows []SelectionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Selection extension (Section 8) — 6 fragments / 4 sites, 24 paper-MB\n")
	fmt.Fprintf(&b, "%-18s %9s %12s %12s %14s %10s %12s\n",
		"query", "matches", "select B", "count B", "central B", "model-s", "visit-2 calls")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9d %12d %12d %14d %10.4f %12d\n",
			r.Query, r.Matches, r.SelectBytes, r.CountBytes, r.CentralBytes, r.SelectSimSec, r.Pass2Visits)
	}
	return b.String()
}
