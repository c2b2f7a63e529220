package cluster

import "fmt"

// Class is how the protocol treats a request kind. Each package declares
// its kinds once, at init, in one table (Declare); Site.dispatch reads
// the class from the handler entry it looks up, and the engine's scatter
// reads it to decide whether a job may move to another replica.
type Class uint8

const (
	// SiteBound is the default: admitted, counted in the site's ledger,
	// never re-placed — the work reads or writes state of this one site.
	SiteBound Class = iota
	// Pure kinds are SiteBound kinds that any replica of the requested
	// fragments answers alike, so failover and hedging apply.
	Pure
	// Control kinds are never shed and stay outside the visit, message,
	// byte and latency ledger: health probes, fragment migration and the
	// obs.stats scrape must reach a busy site without perturbing what it
	// reports.
	Control
)

// classes holds every declared kind. It is written only by package
// inits (Declare), so reads need no lock.
var classes = map[string]Class{}

// Declare records the classes of a package's request kinds. Call it from
// the package's init with the package's one kind table; declaring a kind
// twice panics.
func Declare(kinds map[string]Class) {
	for k, c := range kinds {
		if _, dup := classes[k]; dup {
			panic(fmt.Sprintf("cluster: request kind %q declared twice", k))
		}
		classes[k] = c
	}
}

// ClassOf returns a kind's declared class; an undeclared kind is
// SiteBound.
func ClassOf(kind string) Class { return classes[kind] }

// kinds is this package's kind table. The delta subscription is served
// by the TCP read loop itself, not dispatched: it lives as long as its
// connection. Neither kind has a payload golden here: obs.stats answers
// with obs.SiteStatsSnapshot, pinned in internal/obs, and a subscription
// carries no payload.
var kinds = map[string]Class{
	StatsKind:           Control,
	SubscribeDeltasKind: Control,
}

func init() { Declare(kinds) }
