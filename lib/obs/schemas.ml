(* The declared schemas of every machine-readable artifact the stack
   emits.  test/test_json_schemas.ml validates real artifacts against
   these; fpan_tool validates its own output before writing.  A shape
   change that is not reflected here fails `dune runtest` instead of
   downstream tooling. *)

open Schema

let num_or_null = nullable Num

(* Per-worker scheduler telemetry row (Runtime.Sched.stats_json).
   busy/idle seconds and the steal_attempts/join_helps counters were
   added after the first BENCH artifacts shipped, so they stay
   optional: committed pre-extension artifacts still validate. *)
let worker_row =
  Obj
    [ Req ("worker", Int);
      Req ("tasks", Int);
      Req ("steals", Int);
      Opt ("steal_attempts", Int);
      Opt ("join_helps", Int);
      Req ("tile_flops", Int);
      Opt ("busy_seconds", Num);
      Opt ("idle_seconds", Num);
      Req ("busy_fraction", Num) ]

(* Obs.Sample.to_json: the quartiles and sample count of a timed value
   reported as a median, in that value's units. *)
let spread = Obj [ Req ("q1", Num); Req ("q3", Num); Req ("n", Int) ]

(* --- BENCH_fig9/10/11.json ------------------------------------------ *)

let fig_cell =
  Obj
    [ Req ("name", Str);
      Req ("bits", Int);
      Req ("layout", Str);
      Req ("n", Int);
      Req ("gops", num_or_null);
      Req ("spread", spread) ]

let fig_table =
  Obj
    [ Req ("kernel", Str);
      Req ("rows", List (Obj [ Req ("label", Str); Req ("cells", List fig_cell) ])) ]

let fig_sched_block =
  Obj
    [ Req ("engine", Str);
      Req ("kernel", Str);
      Req ("bits", Int);
      Req ("n", Int);
      Req ("workers", Int);
      Req ("tile", Str);
      Req ("wall_s", Num);
      Req ("spread", spread);
      Req ("window_wall_s", Num);
      Req ("per_worker", List worker_row) ]

(* [isa] names the SIMD clone of the planar C kernels that produced the
   timings (Multifloat.Batch.isa); artifacts older than those kernels
   lack it. *)
let bench_fig =
  Obj
    [ Req ("experiment", Str);
      Req ("units", Str);
      Req ("note", Str);
      Opt ("isa", Str);
      Req ("tables", List fig_table);
      Opt
        ( "layout_speedup",
          List (Obj [ Req ("kernel", Str); Req ("bits", Int); Req ("planar_over_aos", num_or_null) ])
        );
      Opt ("sched", fig_sched_block) ]

(* --- BENCH_sched.json (fpan-bench-sched/4) -------------------------- *)

(* Walls are medians over the reps, each with its spread;
   [window_wall_s] is the sum of the rep walls, the window the
   [telemetry] counters cover. *)
let sched_curve_row =
  Obj
    [ Req ("workers", Int);
      Req ("runtime_wall_s", Num);
      Req ("spread", spread);
      Req ("runtime_gops", Num);
      Req ("speedup_vs_seq", Num);
      Req ("window_wall_s", Num);
      Req ("bitwise_equal_seq", Bool);
      Req ("telemetry", List worker_row) ]

(* The machine, toolchain and source of the numbers (Obs.Env).
   [cc] was added after the first BENCH_codec.json shipped. *)
let env_block =
  Obj
    [ Req ("nproc", Int);
      Req ("cpu", Str);
      Req ("ocaml", Str);
      Req ("flambda", Bool);
      Opt ("cc", Str);
      Req ("isa", Str);
      Req ("git_rev", Str) ]

(* The GEMV rung: per-row dot loop, sequential dot_rows, and the
   runtime at each curve worker count, all checked bitwise against the
   per-row loop. *)
let sched_gemv =
  Obj
    [ Req ("bits", Int);
      Req ("n", Int);
      Req ("lanes", Int);
      Req ("per_row_wall_s", Num);
      Req ("per_row_spread", spread);
      Req ("dot_rows_wall_s", Num);
      Req ("dot_rows_spread", spread);
      Req ("dot_rows_speedup", Num);
      Req ("dot_rows_bitwise_equal_per_row", Bool);
      Req
        ( "curve",
          List
            (Obj
               [ Req ("workers", Int);
                 Req ("wall_s", Num);
                 Req ("spread", spread);
                 Req ("gops", Num);
                 Req ("speedup_vs_per_row", Num);
                 Req ("bitwise_equal_per_row", Bool) ]) ) ]

let bench_sched =
  Obj
    [ Req ("schema", Str_const "fpan-bench-sched/4");
      Req ("env", env_block);
      Req ("kernel", Str);
      Req ("bits", Int);
      Req ("n", Int);
      Req ("tile_m", Int);
      Req ("tile_n", Int);
      Req ("reps", Int);
      Req ("seq_wall_s", Num);
      Req ("seq_spread", spread);
      Req ("seq_gops", Num);
      Req ("curve", List sched_curve_row);
      Req ("gemv", sched_gemv);
      Opt
        ( "tile_sweep",
          List
            (Obj [ Req ("tile", Int); Req ("wall_s", Num); Req ("spread", spread); Req ("gops", Num) ])
        );
      Opt ("obs", Obj [ Req ("trace_summary", Str); Req ("chrome_trace", Str) ]) ]

(* --- CHECK_report.json (fpan-check/1) ------------------------------- *)

let hex_floats = List Str

let check_failure =
  Obj
    [ Req ("impl", Str);
      Req ("op", Str);
      Req ("class", Str);
      Req ("kind", Str);
      Req ("ulps", num_or_null);
      Req ("inputs", List hex_floats);
      Req ("got", hex_floats);
      Req ("shrunk", List hex_floats);
      Req ("shrunk_terms", Int) ]

let check_result_row =
  Obj
    [ Req ("impl", Str);
      Req ("op", Str);
      Req ("q", Int);
      Req ("gated", Bool);
      Req ("count", Int);
      Req ("skipped", Int);
      Req ("nonfinite", Int);
      Req ("exceed", Int);
      Req ("max_ulps", num_or_null);
      Req ("mean_ulps", num_or_null);
      Req
        ( "histogram",
          Obj [ Req ("lo_exp", Int); Req ("hi_exp", Int); Req ("buckets", List Int) ] ) ]

let check_report =
  Obj
    [ Req ("schema", Str_const "fpan-check/1");
      Req ("seed", Int);
      Req ("cases", Int);
      Req ("scalar_cases", Int);
      Req ("vector_cases", Int);
      Req ("vec_len", Int);
      Req ("tiers", List Int);
      Req ("ops", List Str);
      Req ("passed", Bool);
      Req ("failure_count", Int);
      Req ("failures", List check_failure);
      Req ("results", List check_result_row) ]

(* --- VERIFY_*.json (fpan-verify/1) ---------------------------------- *)

let verify_obligation_names =
  [ "two_sum"; "fast_two_sum"; "two_prod"; "nonoverlap"; "error_bound"; "equivalence" ]

let verify_counts_row =
  Obj
    [ Req ("obligation", Str_enum verify_obligation_names);
      Req ("checked", Int);
      Req ("violations", Int);
      Req ("skipped", Int) ]

let verify_failure =
  Obj
    [ Req ("index", Int);
      Req ("obligation", Str_enum verify_obligation_names);
      Req ("operands", List hex_floats);
      Req ("outputs", hex_floats);
      Req ("shrunk", List hex_floats);
      Req ("shrunk_terms", Int) ]

let verify_sweep =
  Obj
    [ Req ("name", Str);
      Req ("kind", Str_enum [ "add_network"; "mul_network"; "chain" ]);
      Req ("width", Int);
      Req ("window", Int);
      Req ("gap", Int);
      Req ("terms", Int);
      Req ("slots", Int);
      Req ("tuples", Int);
      Req ("circuit_ops", Int);
      Req ("constraints", Int);
      Req ("footprint_bits", Int);
      Req ("error_bound_exp", nullable Int);
      Req ("obligations", List verify_counts_row);
      Req ("worst_error_log2", num_or_null);
      Req ("failures", List verify_failure);
      Req ("passed", Bool) ]

let verify_gate_op =
  Obj
    [ Req ("op", Str_enum [ "two_sum"; "fast_two_sum"; "two_prod" ]);
      Req ("checked", Int);
      Req ("violations", Int);
      Req ("skipped", Int) ]

let verify_gate_level =
  Obj
    [ Req ("precision", Int);
      Req ("emin", Int);
      Req ("emax", Int);
      Req ("values", Int);
      Req ("pairs", Int);
      Req ("ops", List verify_gate_op);
      Req ("passed", Bool) ]

let verify_certificate =
  Obj
    [ Req ("schema", Str_const "fpan-verify/1");
      Req ("gate_level", nullable verify_gate_level);
      Req ("sweeps", List verify_sweep);
      Req ("passed", Bool) ]

(* --- fpan-serve/1: wire frames, server stats, BENCH_serve.json ------ *)

(* Operands and results travel as C99 hex-float component strings
   (exact transport: Json_out numbers turn inf/nan into null). *)
let hex_elements = List (List Str)

(* Wire frames accept both generations: fpan-serve/1 is the fixed-tier
   protocol, fpan-serve/2 adds the adaptive-precision fields — an [sla]
   exponent instead of a tier on requests, and the chosen tier plus the
   certified error bound (hex-float string) on results. *)
let serve_schema_versions = Str_enum [ "fpan-serve/1"; "fpan-serve/2" ]

let serve_request =
  Obj
    [ Req ("schema", serve_schema_versions);
      Req ("id", Int);
      Req ("op", Str);
      Opt ("tier", Str);
      Opt ("sla", Int);
      Opt ("deadline_ms", Num);
      Opt ("prog", List Str);
      Opt ("x", hex_elements);
      Opt ("y", hex_elements);
      Opt ("z", hex_elements) ]

let serve_response =
  Obj
    [ Req ("schema", serve_schema_versions);
      Req ("id", Int);
      Req ("status", Str);
      Opt ("result", hex_elements);
      Opt ("batch", Int);
      Opt ("chosen", Str_enum [ "mf2"; "mf3"; "mf4"; "bigfloat" ]);
      Opt ("bound", Str);
      Opt ("reason", Str);
      Opt ("error", Str);
      Opt ("stats", Any) ]

let serve_batch_histogram = List (Obj [ Req ("size", Int); Req ("count", Int) ])

(* Stats and bench documents moved to fpan-serve/2 with the sharded /
   cached serving layer, and to fpan-serve/3 with adaptive-precision
   serving: per-kind cache counters, the SLA escalation block on stats,
   and the adaptive bench block on BENCH_serve.json. *)
let serve_cache_stats =
  Obj
    [ Req ("capacity", Int);
      Req ("hits", Int);
      Req ("misses", Int);
      Req ("size", Int);
      Req ("evictions", Int);
      Req
        ( "by_kind",
          List (Obj [ Req ("kind", Str); Req ("hits", Int); Req ("misses", Int) ]) ) ]

let serve_escalation_histogram =
  List (Obj [ Req ("chosen", Str); Req ("count", Int) ])

let serve_sla_stats =
  Obj
    [ Req ("requests", Int);
      Req ("escalations", Int);
      Req ("chosen", serve_escalation_histogram) ]

(* fpan-serve/4: priority shedding under overload — displacement count
   plus the per-SLA-bucket split of everything shed. *)
let serve_stats =
  Obj
    [ Req ("schema", Str_const "fpan-serve/4");
      Req ("accepted", Int);
      Req ("adopted_conns", Int);
      Req ("open_conns", Int);
      Req ("refused_conns", Int);
      Req ("completed", Int);
      Req ("shed_full", Int);
      Req ("shed_deadline", Int);
      Req ("shed_closed", Int);
      Req ("shed_displaced", Int);
      Req
        ( "shed_by_bucket",
          List (Obj [ Req ("bucket", Str); Req ("count", Int) ]) );
      Req ("errors", Int);
      Req ("batches", Int);
      Req ("queue_capacity", Int);
      Req ("queue_depth", Int);
      Req ("queue_max_depth", Int);
      Req ("cache", serve_cache_stats);
      Req ("sla", serve_sla_stats);
      Req ("batch_histogram", serve_batch_histogram);
      Req ("sched", List worker_row) ]

let serve_cell =
  Obj
    [ Req ("label", Str);
      Req ("max_batch", Int);
      Req ("window_us", Num);
      Req ("shards", Int);
      Req ("conns", Int);
      Req ("pipeline", Int);
      Req ("sent", Int);
      Req ("ok", Int);
      Req ("shed", Int);
      Req ("errors", Int);
      Req ("wall_s", Num);
      Req ("throughput_rps", Num);
      Req ("shed_rate", Num);
      Req
        ( "latency_us",
          Obj [ Req ("p50", num_or_null); Req ("p90", num_or_null);
                Req ("p95", num_or_null); Req ("p99", num_or_null);
                Req ("max", num_or_null) ] );
      Req ("batch_histogram", serve_batch_histogram);
      Req ("sched", List worker_row) ]

let serve_scaling_point =
  Obj
    [ Req ("label", Str);
      Req ("shards", Int);
      Req ("conns", Int);
      Req ("throughput_rps", Num) ]

(* The adaptive block: compute-path throughput of SLA-driven serving
   against always-mf4 at equal delivered accuracy, the escalation
   histogram over the mixed-SLA workload, and the fuzz gate counters
   (containment against the exact oracle, monotonicity in q, bitwise
   identity with the fixed-tier path). *)
let serve_adaptive_block =
  Obj
    [ Req ("cases", Int);
      Req ("n", Int);
      Req ("mix", List (Obj [ Req ("op", Str); Req ("q", Int); Req ("count", Int) ]));
      Req ("escalation_histogram", serve_escalation_histogram);
      Req ("escalations", Int);
      Req ("sla_throughput_rps", Num);
      Req ("sla_spread", spread);
      Req ("mf4_throughput_rps", Num);
      Req ("mf4_spread", spread);
      Req ("speedup_vs_mf4", Num);
      Req
        ( "fuzz",
          Obj
            [ Req ("cases", Int);
              Req ("containment_violations", Int);
              Req ("monotonicity_violations", Int);
              Req ("bitwise_mismatches", Int) ] ) ]

let bench_serve =
  Obj
    [ Req ("schema", Str_const "fpan-serve/3");
      Req ("mode", Str);
      Req ("workers", Int);
      Req ("queue_capacity", Int);
      Req ("cache_capacity", Int);
      Req ("duration_s", Num);
      Req ("ops", List Str);
      Req ("tiers", List Str);
      Opt ("slas", List Int);
      Req ("cells", List serve_cell);
      Req ("scaling", List serve_scaling_point);
      Req ("canary", Obj [ Req ("checked", Int); Req ("mismatches", Int) ]);
      Req ("batching_speedup", num_or_null);
      Opt ("adaptive", serve_adaptive_block) ]

(* --- BENCH_fuse.json (fpan-bench-fuse/3) ---------------------------- *)

(* Cross-op fusion ablation: each cell times one fused wire-program
   kernel against its op-by-op composition ("ablation-fusion") and
   records that the two paths agreed bitwise.  Walls are medians, each
   with its spread. *)
let fuse_cell =
  Obj
    [ Req ("kernel", Str);
      Req ("unfused", Str);
      Req ("bits", Int);
      Req ("n", Int);
      Req ("reps", Int);
      Req ("fused_wall_s", Num);
      Req ("fused_spread", spread);
      Req ("unfused_wall_s", Num);
      Req ("unfused_spread", spread);
      Req ("speedup", Num);
      Req ("bitwise_equal", Bool) ]

let bench_fuse =
  Obj
    [ Req ("schema", Str_const "fpan-bench-fuse/3");
      Req ("env", env_block);
      Req ("mode", Str_const "ablation-fusion");
      Req ("cells", List fuse_cell) ]

(* --- BENCH_codec.json (fpan-bench-codec/1) --------------------------- *)

(* The wire-codec rung: per hex-float component, the C primitives
   against Printf "%h" / float_of_string_opt; per length-256 request,
   the tree encode and decode against the single-pass decode.  Every
   time is a median with its spread, beside the minor words one call
   allocates; [env] names the machine and the build. *)
let codec_component =
  Obj
    [ Req ("direction", Str_enum [ "encode"; "decode" ]);
      Req ("impl", Str);
      Req ("ns", Num);
      Req ("spread", spread);
      Req ("minor_words", Num) ]

let codec_request =
  Obj
    [ Req ("tier", Str_enum [ "mf2"; "mf3"; "mf4" ]);
      Req ("op", Str);
      Req ("len", Int);
      Req ("components", Int);
      Req ("bytes", Int);
      Req ("path", Str_enum [ "tree_encode"; "tree_decode"; "single_pass_decode" ]);
      Req ("us", Num);
      Req ("spread", spread);
      Req ("minor_words", Num) ]

let bench_codec =
  Obj
    [ Req ("schema", Str_const "fpan-bench-codec/1");
      Req ("env", env_block);
      Req ("reps", Int);
      Req ("component_count", Int);
      Req ("components", List codec_component);
      Req ("requests", List codec_request) ]

(* --- CHAOS_report.json (fpan-chaos/1) ------------------------------- *)

(* One campaign scenario: the fault classes it exercises, exact
   client-driven injection count ([null] for seam-side scenarios whose
   firing count depends on syscall timing and is deliberately kept out
   of the committed artifact), and the invariant tallies.  Everything
   in this document is a pure function of (seed, shards, requests), so
   re-running the campaign must reproduce it byte for byte. *)
let chaos_scenario =
  Obj
    [ Req ("name", Str);
      Req ("classes", List Str);
      Req ("injected", num_or_null);
      Req ("requests", Int);
      Req ("answered", Int);
      Req ("checked_bitwise", Int);
      Req ("shed", Int);
      Req ("restarts", Int);
      Req
        ( "shed_by_bucket",
          List (Obj [ Req ("bucket", Str); Req ("count", Int) ]) );
      Req ("passed", Bool) ]

let chaos_report =
  Obj
    [ Req ("schema", Str_const "fpan-chaos/1");
      Req ("seed", Int);
      Req ("shards", Int);
      Req ("requests_per_scenario", Int);
      Req ("scenarios", List chaos_scenario);
      Req
        ( "invariants",
          Obj
            [ Req ("server_deaths", Int);
              Req ("bitwise_mismatches", Int);
              Req ("fd_leak", Int) ] );
      Req ("passed", Bool) ]

(* --- TRACE_*.json (fpan-trace/1) ------------------------------------ *)

let metric_row =
  One_of
    [ Obj [ Req ("name", Str); Req ("type", Str_const "counter"); Req ("value", Int) ];
      Obj [ Req ("name", Str); Req ("type", Str_const "gauge"); Req ("value", num_or_null) ];
      Obj
        [ Req ("name", Str);
          Req ("type", Str_const "histogram");
          Req ("lo_exp", Int);
          Req ("hi_exp", Int);
          Req ("count", Int);
          Req ("sum", num_or_null);
          Req ("max", num_or_null);
          Req ("buckets", List Int) ] ]

let trace_by_name_row =
  Obj
    [ Req ("name", Str);
      Req ("cat", Str);
      Req ("count", Int);
      Req ("total_ns", Num);
      Req ("mean_ns", Num);
      Req ("max_ns", Num);
      Opt ("arg_name", Str);
      Opt ("arg_sum", Num) ]

let trace_summary =
  Obj
    [ Req ("schema", Str_const "fpan-trace/1");
      Req ("workload", Str);
      Req ("span_count", Int);
      Req ("dropped", Int);
      Req ("unbalanced", Int);
      Req ("by_name", List trace_by_name_row);
      Req ("metrics", List metric_row);
      Opt ("sched", List worker_row);
      Opt
        ( "overhead",
          Obj
            [ Req ("untraced_wall_s", Num);
              Req ("untraced_spread", spread);
              Req ("traced_wall_s", Num);
              Req ("traced_spread", spread);
              Req ("overhead_pct", Num);
              Req ("window_wall_s", Num) ] ) ]

(* Chrome trace files are externally specified; we still pin the
   envelope and the event fields we rely on. *)
let chrome_event =
  Obj
    [ Opt ("name", Str);
      Opt ("cat", Str);
      Req ("ph", Str);
      Opt ("ts", Num);
      Req ("pid", Int);
      Req ("tid", Int);
      Opt ("args", Any) ]

let chrome_trace =
  Obj [ Req ("traceEvents", List chrome_event); Req ("displayTimeUnit", Str) ]
