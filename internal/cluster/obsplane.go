package cluster

import (
	"context"
)

// StatsKind is the RPC kind answering a site's observability counters:
// the paper's visits/messages/bytes/steps quantities plus cache, shed,
// and latency-histogram data, encoded with obs.SiteStatsSnapshot.
// `parbox top` scrapes it over the ordinary transport, so live
// introspection needs no side channel — any peer that can query a site
// can also ask what it has been doing.
const StatsKind = "obs.stats"

// RegisterStatsHandler installs the obs.stats endpoint on a site. The
// kind is Control: never shed (monitoring must answer precisely when the
// site is overloaded) and excluded from the counters it reports, so
// scraping does not perturb the measurement.
func RegisterStatsHandler(s *Site) {
	s.Handle(StatsKind, func(ctx context.Context, site *Site, req Request) (Response, error) {
		snap := site.stats.Snapshot()
		snap.Site = string(site.id)
		return Response{Payload: snap.Encode(nil)}, nil
	})
}
