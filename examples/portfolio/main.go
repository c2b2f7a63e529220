// Portfolio: the paper's running example (Fig. 1b / Fig. 2) end to end —
// a stock portfolio spread over a desktop, a broker's servers and a
// market's servers; a standing Boolean XPath view ("did GOOG reach a sell
// price of 376?") maintained incrementally as prices tick, exactly the
// publish-subscribe scenario of the paper's introduction.
//
//	go run ./examples/portfolio
package main

import (
	"context"
	"fmt"
	"log"

	parbox "repro"
	"repro/internal/fixtures"
)

func main() {
	// The document of Fig. 1(b), fragmented as in Fig. 2:
	//   F0 (root + Bache's NYSE data)   → the owner's desktop  (S0)
	//   F1 (Merill Lynch's market)      → the broker's servers (S1)
	//   F2 (a stock inside F1), F3      → NASDAQ's servers     (S2)
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := parbox.Deploy(forest, parbox.Assignment{
		0: "desktop", 1: "merill", 2: "nasdaq", 3: "nasdaq",
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("source tree:")
	fmt.Print(sys.SourceTree().String())

	// Ad-hoc query, evaluated by partial evaluation — each site visited
	// once, no stock data leaves its site.
	q := parbox.MustPrepare(`//stock[code = "YHOO"]`)
	res, err := sys.Exec(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[ad-hoc] holds YHOO? %v  (%d bytes moved, visits %v)\n",
		res.Answer, res.Bytes, res.Visits)

	// The standing query of the introduction: notify when GOOG can be
	// sold at 376 — the materialize mode turns it into a maintained view.
	watch := parbox.MustPrepare(`//stock[code = "GOOG" && sell = "376"]`)
	wres, err := sys.Exec(ctx, watch, parbox.WithMode(parbox.ModeMaterialize))
	if err != nil {
		log.Fatal(err)
	}
	view := wres.View
	fmt.Printf("\n[view] %s → %v\n", watch, view.Answer())

	// NASDAQ ticks: Bache's GOOG sell price moves 373 → 376. Fragment F3
	// is market(name, stock(GOOG), stock(YHOO)); the sell element of the
	// first stock is path [1 2].
	tick := func(price string) {
		mc, err := view.Update(ctx, 3, []parbox.UpdateOp{
			{Op: parbox.OpSetText, Path: []int{1, 2}, Text: price},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[tick] GOOG sell=%s → view=%v (visited %v, %d bytes, re-solved=%v)\n",
			price, view.Answer(), mc.SitesVisited, mc.Bytes, mc.Recomputed)
	}
	tick("374")
	tick("376") // the notification fires
	tick("375")

	// Administrative re-fragmentation (Section 5): NASDAQ splits Bache's
	// NYSE market out of the desktop fragment onto its own server — the
	// cached answer is untouched.
	if err := sys.AddSite("nyse-site"); err != nil {
		log.Fatal(err)
	}
	f0, _ := forest.Fragment(0)
	nyse := f0.Root.FindAll("market")[0]
	newID, _, err := view.Split(ctx, 0, parbox.PathOf(nyse), "nyse-site")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[split] NYSE market became fragment F%d at nyse-site; view still %v\n",
		newID, view.Answer())
}
