(** Declared schemas for every machine-readable artifact the stack
    emits.  One place to update on intentional shape changes;
    test/test_json_schemas.ml validates the real artifacts. *)

val spread : Schema.t
(** [Obs.Sample.to_json]: the [spread] beside a median. *)

val worker_row : Schema.t
(** Per-worker telemetry row ([Runtime.Sched.stats_json]). *)

val bench_fig : Schema.t
(** [BENCH_fig9.json], [BENCH_fig10.json], [BENCH_fig11.json]. *)

val bench_sched : Schema.t
(** [BENCH_sched.json], schema id [fpan-bench-sched/4]. *)

val check_report : Schema.t
(** [CHECK_report.json], schema id [fpan-check/1]. *)

val verify_certificate : Schema.t
(** [VERIFY_*.json], the exhaustive small-width verification
    certificate, schema id [fpan-verify/1]. *)

val serve_request : Schema.t
(** One request frame of the serving wire protocol, schema id
    [fpan-serve/1] (fixed tier) or [fpan-serve/2] (adaptive: [sla]
    exponent instead of a tier).  The server validates every inbound
    frame against this before decoding. *)

val serve_response : Schema.t
(** One response frame of the serving wire protocol. *)

val serve_stats : Schema.t
(** The server-introspection document returned by the [stats]
    operation. *)

val bench_serve : Schema.t
(** [BENCH_serve.json], the load-generator artifact (same
    [fpan-serve/1] family). *)

val bench_fuse : Schema.t
(** [BENCH_fuse.json], the cross-op fusion ablation, schema id
    [fpan-bench-fuse/3]. *)

val bench_codec : Schema.t
(** [BENCH_codec.json], the wire-codec rung of the bench harness
    ([bench/main.exe codec]), schema id [fpan-bench-codec/1]. *)

val chaos_report : Schema.t
(** [CHAOS_report.json], the fault-injection campaign artifact, schema
    id [fpan-chaos/1].  Deterministic for a fixed
    (seed, shards, requests): every field is plan-derived or
    invariant-derived; timing-dependent counts are [null]. *)

val trace_summary : Schema.t
(** [TRACE_*.json], schema id [fpan-trace/1]. *)

val chrome_trace : Schema.t
(** The envelope and event fields of the exported Chrome trace. *)
