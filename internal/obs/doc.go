// Package obs is the observability layer of the simulation core: event
// tracing, streaming metrics, and admission audit logging.
//
// Every layer is opt-in and costs nothing when disabled. Components hold
// their observability hooks in nil-defaulting fields and guard every
// emission with a single nil check, so a run with observability off
// executes exactly the pre-observability instruction stream plus one
// pointer comparison per would-be emission — no allocations, no virtual
// calls (the zero-overhead contract is enforced by
// testing.AllocsPerRun-based tests, the root allocation budgets among them).
//
// Three layers, composable independently:
//
//   - Tracer (trace.go): a stream of timestamped simulation events — job
//     lifecycle (arrive, admit/reject, start, finish, kill, deadline
//     miss), node state changes (down/up, degraded/nominal) and injected
//     faults — exportable as Chrome trace_event JSON (chrome://tracing,
//     Perfetto) or line-delimited JSON for programmatic analysis
//     (cmd/tracedump).
//
//   - Registry (metrics.go): counters, gauges and fixed-bucket histograms
//     with no locks on the single-threaded engine path; per-run
//     registries merge across sweep workers and export as Prometheus text
//     format or a JSON snapshot. SimMetrics (simmetrics.go) is the
//     pre-resolved instrument bundle the hot paths use, so emission is a
//     field increment, never a map lookup.
//
//   - AuditLog (audit.go): one record per admission-control decision —
//     the candidate nodes examined, each node's risk σ (LibraRisk) or
//     admission share (Libra), the chosen nodes, and the rejection reason
//     — the per-decision visibility needed to explain *why* one policy
//     beats another, not just by how much.
//
// Sweep (sweep.go) coordinates the three layers across the concurrent
// workers of a parameter sweep: each cell gets a private, unsynchronized
// Run bundle, and completed bundles merge under one lock into
// deterministic, worker-count-independent output.
package obs
