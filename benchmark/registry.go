package main

// metricDef is one metric the benchmark emits. BENCHMARK.json lists the
// same names; smoke_test.go fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	Layer  string  `json:"layer,omitempty"` // per-layer only: the module the metric belongs to
	Doc    string  `json:"doc"`
	Moves  string  `json:"moves,omitempty"` // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from its untraced pass, and each is gated by
// its bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "generate, fragment, deploy, subscribe, take restart images, warm up; median of the run's set-ups"},
	{Name: "query_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "wall time of one caller-visible query op, from query text or prepared query to answer"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "queries answered per second of query-phase wall time (a batch counts 16)"},
	{Name: "select_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "one ModeSelect or ModeCount op over the XMark selection queries, as the wall time per op of a pass over all eight"},
	{Name: "update_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "one single-op View.Update"},
	{Name: "notify_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "start of a flipping View.Update until the last subscriber of the flipped query holds its notification"},
	{Name: "restart_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "Restore plus first answer from a checkpointed image"},
	{Name: "recover_wal_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "Restore plus first answer from a crash image (snapshot plus WAL tail)"},
	{Name: "wire_bytes_per_query", Unit: "B", Better: "lower", Bound: 0.05,
		Doc: "payload bytes shipped between sites per query answered"},
	{Name: "store_bytes_per_doc_byte", Unit: "ratio", Better: "lower", Bound: 0.05,
		Doc: "bytes of the checkpointed data directory per byte of the document written as XML"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05,
		Doc: "heap in use after a collection at the end of set-up"},
}

// recorded are the tails of the untraced pass. They are printed and
// written to the -out file beside the end-to-end metrics, but carry no
// bound and are not part of the result line: on this shared 2-core box the
// p95 of ten runs of the same code spreads 20-30 % of its median, twice what
// the p50 does, so a bound on it would judge the neighbours, not a change.
var recorded = []metricDef{
	{Name: "query_ms_p95", Unit: "ms", Better: "lower", Doc: "95th percentile of the query op behind query_ms_p50"},
	{Name: "update_ms_p95", Unit: "ms", Better: "lower", Doc: "95th percentile of the update behind update_ms_p50"},
	{Name: "notify_ms_p95", Unit: "ms", Better: "lower", Doc: "95th percentile of the notification behind notify_ms_p50"},
}

// untraced is what the untraced pass measures: the end-to-end metrics, then
// the recorded tails.
func untraced() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), recorded...)
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, recorded, perLayer} {
		for _, m := range defs {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// perLayer are the traced pass's metrics, one layer per module. Timings
// are medians over the traced ops. Moves names the end-to-end metric and
// workload a change to the layer should show on.
var perLayer = []metricDef{
	// xpath
	{Name: "xpath.parse_us", Unit: "us", Better: "lower", Layer: "xpath", Doc: "xpath.Parse of one query text", Moves: "query_ms_p50 on adhoc-cold, batch-wide; none on standing-warm-tcp"},
	{Name: "xpath.compile_us", Unit: "us", Better: "lower", Layer: "xpath", Doc: "xpath.Compile, or CompileBatch of the round's 16 queries", Moves: "query_ms_p50 on adhoc-cold, batch-wide"},
	{Name: "xpath.kernel_compile_us", Unit: "us", Better: "lower", Layer: "xpath", Doc: "xpath.CompileKernel of the round's program", Moves: "query_ms_p50 on adhoc-cold, batch-wide"},
	{Name: "xpath.lanes_per_round", Unit: "count", Better: "lower", Layer: "xpath", Doc: "|QList| of the round's program", Moves: "context for every eval metric"},
	{Name: "xpath.program_codec_us", Unit: "us", Better: "lower", Layer: "xpath", Doc: "Program.Encode plus DecodeProgram", Moves: "query_ms_p50 on standing-warm-tcp"},
	{Name: "xpath.program_bytes", Unit: "B", Better: "lower", Layer: "xpath", Doc: "encoded size of the round's program", Moves: "wire_bytes_per_query on standing-warm-tcp"},
	// eval
	{Name: "eval.bottomup_us_per_fragment", Unit: "us", Better: "lower", Layer: "eval", Doc: "eval.BottomUp of the round's program over one 10k-node fragment", Moves: "query_ms_*, queries_per_s on adhoc-cold (1 word), batch-wide (3 words); none on standing-warm-tcp"},
	{Name: "eval.bottomup_ns_per_lane_node", Unit: "ns", Better: "lower", Layer: "eval", Doc: "the same per lane and node", Moves: "as above"},
	{Name: "eval.steps_per_query", Unit: "count", Better: "lower", Layer: "eval", Doc: "bottomUp steps the sites reported per query answered", Moves: "0 on standing-warm-tcp by construction"},
	{Name: "eval.solve_us", Unit: "us", Better: "lower", Layer: "eval", Doc: "eval.Solve (SolveMulti for a batch) over the 8 triplets", Moves: "query_ms_p50 on standing-warm-tcp; notify_ms_p50 on update-churn"},
	{Name: "eval.solve_work_per_query", Unit: "count", Better: "lower", Layer: "eval", Doc: "formula work of the coordinator's solve per query", Moves: "as above"},
	{Name: "eval.triplet_codec_us", Unit: "us", Better: "lower", Layer: "eval", Doc: "Triplet.Encode plus DecodeTriplet of one fragment's triplet", Moves: "query_ms_p50 on standing-warm-tcp"},
	{Name: "eval.triplet_bytes", Unit: "B", Better: "lower", Layer: "eval", Doc: "encoded size of one fragment's triplet", Moves: "wire_bytes_per_query on standing-warm-tcp"},
	{Name: "eval.plane_build_us", Unit: "us", Better: "lower", Layer: "eval", Doc: "eval.BuildPlane of a standing program over its fragment", Moves: "setup_s on update-churn"},
	{Name: "eval.plane_patch_us", Unit: "us", Better: "lower", Layer: "eval", Doc: "Plane.Patch after one leaf's text changed", Moves: "update_ms_p50 on update-churn"},
	{Name: "eval.select_fragment_us", Unit: "us", Better: "lower", Layer: "eval", Doc: "eval.SelectFragment of a selection query over one leaf fragment", Moves: "select_ms_p50 on adhoc-cold"},
	// core
	{Name: "core.round_us", Unit: "us", Better: "lower", Layer: "core", Doc: "Engine.ParBoX or ParBoXBatch on the twin", Moves: "query_ms_p50 on every workload; dominant on standing-warm-tcp"},
	{Name: "core.round_self_us", Unit: "us", Better: "lower", Layer: "core", Doc: "the round minus the time its transport calls cover", Moves: "query_ms_p50 on standing-warm-tcp"},
	{Name: "core.handler_evalqual_us", Unit: "us", Better: "lower", Layer: "core", Doc: "one site's evalQual handler", Moves: "query_ms_p50 on adhoc-cold, batch-wide"},
	{Name: "core.handler_self_us", Unit: "us", Better: "lower", Layer: "core", Doc: "the handler minus the replayed program decode, bottomUp and triplet encode (decode alone on a cache hit)", Moves: "query_ms_p50 on standing-warm-tcp"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "core", Doc: "fragments answered from the triplet cache over fragments asked", Moves: "0 on adhoc-cold, 1 on standing-warm-tcp; query_ms_* on update-churn"},
	{Name: "core.visits_per_site_max", Unit: "count", Better: "lower", Layer: "core", Doc: "most visits any site received in one round: the paper's invariant, 1", Moves: "must stay 1"},
	{Name: "core.retries_per_1k_ops", Unit: "count", Better: "lower", Layer: "core", Doc: "failovers and round retries per 1000 ops; 0 without faults", Moves: "must stay 0"},
	// cluster
	{Name: "cluster.call_us", Unit: "us", Better: "lower", Layer: "cluster", Doc: "one transport call of a round", Moves: "query_ms_p50/p95, queries_per_s on standing-warm-tcp"},
	{Name: "cluster.call_self_us", Unit: "us", Better: "lower", Layer: "cluster", Doc: "the call minus the handler it caused: framing, socket, dispatch queue", Moves: "as above; near 0 on in-memory workloads"},
	{Name: "cluster.slowest_call_share", Unit: "ratio", Better: "lower", Layer: "cluster", Doc: "slowest of the round's parallel calls over the round", Moves: "how much of a mean-call saving reaches query_ms_p95"},
	{Name: "cluster.calls_per_query", Unit: "count", Better: "lower", Layer: "cluster", Doc: "transport calls per query answered", Moves: "wire_bytes_per_query on standing-warm-tcp, adhoc-cold"},
	{Name: "cluster.messages_per_query", Unit: "count", Better: "lower", Layer: "cluster", Doc: "remote requests plus responses per query", Moves: "as above"},
	{Name: "cluster.bytes_per_query", Unit: "B", Better: "lower", Layer: "cluster", Doc: "remote payload bytes per query", Moves: "as above"},
	{Name: "cluster.sheds", Unit: "count", Better: "lower", Layer: "cluster", Doc: "requests admission control shed; 0", Moves: "must stay 0"},
	// views
	{Name: "views.update_us", Unit: "us", Better: "lower", Layer: "views", Doc: "views.View.Update on the twin", Moves: "update_ms_* on update-churn"},
	{Name: "views.handler_apply_us", Unit: "us", Better: "lower", Layer: "views", Doc: "the site's applyUpdate handler: apply, spine patch, journal, push", Moves: "as above"},
	{Name: "views.update_self_us", Unit: "us", Better: "lower", Layer: "views", Doc: "the update minus its transport call: encode, decode, compare, re-solve", Moves: "as above"},
	{Name: "views.materialize_ms", Unit: "ms", Better: "lower", Layer: "views", Doc: "views.Materialize of the update view", Moves: "setup_s on every workload"},
	{Name: "views.spine_share", Unit: "ratio", Better: "higher", Layer: "views", Doc: "spine recomputes over spine plus full recomputes, from Site.Stats", Moves: "update_ms_p50, notify_ms_p50 on update-churn"},
	{Name: "views.noop_share", Unit: "ratio", Better: "higher", Layer: "views", Doc: "recomputes that left the program's root formulas unchanged, over all recomputes", Moves: "as above"},
	{Name: "views.deltas_pushed_per_update", Unit: "count", Better: "lower", Layer: "views", Doc: "deltas pushed to subscribers per update", Moves: "notify_ms_* on update-churn"},
	// store
	{Name: "store.put_fragment_us", Unit: "us", Better: "lower", Layer: "store", Doc: "Store.PutFragment of one fragment", Moves: "update_ms_p50/p95 on update-churn"},
	{Name: "store.wal_bytes_per_update", Unit: "B", Better: "lower", Layer: "store", Doc: "WAL bytes one PutFragment appends: the write amplification of an update", Moves: "update_ms_*, recover_wal_ms_p50"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "store", Doc: "Store.Checkpoint of a one-fragment store", Moves: "update_ms_p95 on update-churn"},
	{Name: "store.open_ms_per_site", Unit: "ms", Better: "lower", Layer: "store", Doc: "store.Open of one site's checkpointed store", Moves: "restart_ms_p50, recover_wal_ms_p50 on restart"},
	{Name: "store.load_fragment_us", Unit: "us", Better: "lower", Layer: "store", Doc: "Store.LoadFragment: read and decode one fragment", Moves: "as above"},
	{Name: "store.snapshot_bytes", Unit: "B", Better: "lower", Layer: "store", Doc: "bytes of the checkpointed image", Moves: "store_bytes_per_doc_byte on restart"},
	{Name: "store.wal_bytes", Unit: "B", Better: "lower", Layer: "store", Doc: "WAL bytes in the crash image", Moves: "recover_wal_ms_p50 on restart"},
	{Name: "xmltree.codec_us_per_knode", Unit: "us", Better: "lower", Layer: "xmltree", Doc: "xmltree.Encode plus Decode per 1000 nodes", Moves: "restart_ms_p50, live_heap_mb on restart"},
	// parbox
	{Name: "parbox.prepare_us", Unit: "us", Better: "lower", Layer: "parbox", Doc: "parbox.Prepare of one query text", Moves: "query_ms_* on adhoc-cold"},
	{Name: "parbox.exec_us", Unit: "us", Better: "lower", Layer: "parbox", Doc: "System.Exec of one round of the workload's mix (one standing query, one fresh text, or 16 fused), one client", Moves: "query_ms_* on every workload"},
	{Name: "parbox.exec_self_us", Unit: "us", Better: "lower", Layer: "parbox", Doc: "Exec minus the same op's round on the twin", Moves: "query_ms_* on adhoc-cold, update-churn"},
	{Name: "parbox.exec_ms_p99", Unit: "ms", Better: "lower", Layer: "parbox", Doc: "99th percentile of Exec; recorded, not gated", Moves: "the *_p95 rows"},
	{Name: "parbox.allocs_per_op", Unit: "count", Better: "lower", Layer: "parbox", Doc: "heap allocations per query op", Moves: "query_ms_p95, live_heap_mb"},
	{Name: "parbox.alloc_kb_per_op", Unit: "KB", Better: "lower", Layer: "parbox", Doc: "heap bytes allocated per query op", Moves: "as above"},
	{Name: "parbox.scheduler_handoff_us", Unit: "us", Better: "lower", Layer: "parbox", Doc: "median Exec(WithCoalescing) minus median Exec(WithNoCoalesce), interleaved", Moves: "query_ms_p50 on adhoc-cold if coalescing were on"},
	{Name: "parbox.scheduler_rounds_per_query", Unit: "ratio", Better: "lower", Layer: "parbox", Doc: "scheduler rounds per coalesced query at one caller", Moves: "as above"},
	{Name: "parbox.subscribe_new_ms", Unit: "ms", Better: "lower", Layer: "parbox", Doc: "Subscribe of a query nobody subscribes to yet: one baseline round", Moves: "setup_s on update-churn"},
	{Name: "parbox.subscribe_dedup_us", Unit: "us", Better: "lower", Layer: "parbox", Doc: "Subscribe of a query that already has a subscriber", Moves: "setup_s on update-churn"},
	{Name: "parbox.notify_dispatch_us", Unit: "us", Better: "lower", Layer: "parbox", Doc: "View.Update return until the last of the 64 subscribers is served; negative when delivery finished first", Moves: "notify_ms_* on update-churn"},
	{Name: "parbox.deploy_ms", Unit: "ms", Better: "lower", Layer: "parbox", Doc: "parbox.Deploy of the workload's system", Moves: "setup_s on every workload"},
	{Name: "parbox.restore_ms", Unit: "ms", Better: "lower", Layer: "parbox", Doc: "parbox.Restore, both images", Moves: "restart_ms_p50, recover_wal_ms_p50 on restart"},
	{Name: "parbox.first_answer_ms", Unit: "ms", Better: "lower", Layer: "parbox", Doc: "first Exec after Restore", Moves: "as above"},
	{Name: "parbox.close_ms", Unit: "ms", Better: "lower", Layer: "parbox", Doc: "System.Close of a restored system", Moves: "none: untimed in the end-to-end pass"},
	// obs and the harness itself
	{Name: "obs.spans_overhead_share", Unit: "ratio", Better: "lower", Layer: "obs", Doc: "median Exec(WithSpans) over median plain Exec, minus 1, interleaved", Moves: "none: spans are off in the end-to-end pass"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "harness", Doc: "median traced round over median untraced round on the twin, minus 1", Moves: "none"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", Layer: "harness", Doc: "share of Exec that the containers (Exec, round, handler) hold beyond their named stages; reported, not asserted", Moves: "none"},
	// runtime and the paper's constants
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "runtime", Doc: "collections during the traced pass", Moves: "the *_p95 rows"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "runtime", Doc: "total stop-the-world pause during the traced pass", Moves: "the *_p95 rows"},
	{Name: "bench.calibration_ms", Unit: "ms", Better: "lower", Layer: "harness", Doc: "the fixed CPU spin before the pass: the machine, not the program", Moves: "none"},
	{Name: "paper.bytes_per_qlist_fragment", Unit: "B", Better: "lower", Layer: "paper", Doc: "bytes shipped over |QList| times card(F): the traffic bound's constant, must stay flat", Moves: "wire_bytes_per_query"},
	{Name: "paper.steps_per_qlist_node", Unit: "ratio", Better: "lower", Layer: "paper", Doc: "bottomUp steps over |QList| times |T|: the computation bound's constant, must stay flat", Moves: "query_ms_p50 on adhoc-cold"},
}
