(* The benchmark's vocabulary: workloads, metrics, units, bounds.
   BENCHMARK.json at the repository root is rendered from these lists
   ([main.exe --write-manifest BENCHMARK.json]); the smoke test checks
   that every metric named there is emitted with its unit. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only: allowed regression share *)
}

let run_seconds = 20

(* Seeds 1..20 are the tuning seeds.  This one is reserved for checking
   a performance claim on inputs nobody tuned against. *)
let held_out_seed = 7919

let workloads =
  [ ( "dense",
      "planar FPAN kernels and a refinement solve on a 2-worker scheduler: the paper's \
       workload, arithmetic and tiling dominate, nothing touches the wire" );
    ( "serve_rpc",
      "2 closed-loop connections, one small request in flight each: codec, syscalls, \
       admission and the batch window dominate, arithmetic is tiny" );
    ( "serve_batch",
      "2 connections with 32 requests in flight each, length-256 vectors and SLA \
       requests: codec cost is per byte, queues are deep, drives adaptive escalation" ) ]

let e name unit_ better bound = { name; unit_; better; bound = Some bound }
let l name unit_ better = { name; unit_; better; bound = None }

(* Every workload reports all of these.  A "request" is one served
   frame on serve_*, and on dense one round of library calls (five
   kernels and a solve).  The bounds are wide because the reference
   box is a shared 2-vCPU VM: the same dense run drifted by up to 25%
   over minutes with no steal time reported, and a native mul-add loop
   by 2x between runs. *)
let end_to_end =
  [ e "gops" "Gop/s" Higher 0.25;
    e "rps" "1/s" Higher 0.25;
    e "lat_p50_us" "us" Lower 0.25;
    e "lat_p90_us" "us" Lower 0.25;
    e "rss_mb" "MB" Lower 0.25;
    e "setup_s" "s" Lower 0.25 ]

let per_layer =
  [ l "fail_ratio" "ratio" Lower;
    l "lat_p99_us" "us" Lower;
    l "lat_p99_beyond" "count" Higher;
    l "trace.overhead_frac" "ratio" Lower;
    l "self.blas" "share" Lower;
    l "self.linalg" "share" Lower;
    l "self.protocol" "share" Lower;
    l "self.batcher_eval" "share" Lower;
    l "self.client_io" "share" Lower;
    l "self.unattributed" "share" Lower;
    l "eft.two_prod_ns" "ns" Lower;
    l "eft.two_sum_ns" "ns" Lower;
    l "eft.native_muladd_ns" "ns" Lower;
    l "multifloat.mf2_mul_ns" "ns" Lower;
    l "multifloat.mf4_mul_ns" "ns" Lower;
    l "multifloat.mf4_div_ns" "ns" Lower;
    l "multifloat.batch.mf2_madd_ns_elt" "ns" Lower;
    l "multifloat.batch.mf4_madd_ns_elt" "ns" Lower;
    l "multifloat.batch.mf2_dot_ns_elt" "ns" Lower;
    l "blas.gemm_mf2_gops" "Gop/s" Higher;
    l "blas.gemm_mf4_gops" "Gop/s" Higher;
    l "blas.gemv_mf3_gops" "Gop/s" Higher;
    l "blas.dot_mf2_gops" "Gop/s" Higher;
    l "blas.axpy_mf4_gops" "Gop/s" Higher;
    l "blas.gemm_f64_gops" "Gop/s" Higher;
    l "blas.gemm_mf2_frac_f64" "ratio" Higher;
    l "blas.minor_words_per_op" "words/op" Lower;
    l "runtime.speedup_2w" "ratio" Higher;
    l "runtime.busy_frac" "share" Higher;
    l "runtime.idle_s" "s" Lower;
    l "runtime.steals" "count" Lower;
    l "runtime.tasks" "count" Lower;
    l "linalg.solve_ms" "ms" Lower;
    l "linalg.refine_iters" "count" Lower;
    l "linalg.lu_ms" "ms" Lower;
    l "protocol.req_encode_us" "us" Lower;
    l "protocol.req_decode_us" "us" Lower;
    l "protocol.resp_encode_us" "us" Lower;
    l "protocol.resp_decode_us" "us" Lower;
    l "protocol.req_bytes" "B" Lower;
    l "protocol.resp_bytes" "B" Lower;
    l "batcher.mean_batch" "count" Higher;
    l "batcher.batches" "count" Lower;
    l "batcher.eval_us_per_req" "us" Lower;
    l "admission.queue_hwm" "count" Lower;
    l "server.unattributed_us" "us" Lower;
    l "adaptive.escalations_per_req" "ratio" Lower;
    l "adaptive.chosen_mf2" "share" Higher;
    l "adaptive.chosen_mf3" "share" Lower;
    l "adaptive.chosen_mf4" "share" Lower;
    l "adaptive.chosen_bigfloat" "share" Lower;
    l "cache.hit_ratio" "ratio" Lower ]

let find name =
  List.find (fun m -> m.name = name) (end_to_end @ per_layer)

let better_name = function Higher -> "higher" | Lower -> "lower"

let manifest () =
  let module J = Obs.Json_out in
  let metric m =
    J.Obj
      ([ ("name", J.Str m.name); ("unit", J.Str m.unit_); ("better", J.Str (better_name m.better)) ]
      @ match m.bound with Some b -> [ ("bound", J.Num b) ] | None -> [])
  in
  J.Obj
    [ ("command", J.List [ J.Str "python3"; J.Str "perfbench/run.py" ]);
      ("paths", J.List [ J.Str "perfbench" ]);
      ("run_seconds", J.Num (float_of_int run_seconds));
      ( "workloads",
        J.List (List.map (fun (n, why) -> J.Obj [ ("name", J.Str n); ("why", J.Str why) ]) workloads)
      );
      ("end_to_end", J.List (List.map metric end_to_end));
      ("per_layer", J.List (List.map metric per_layer)) ]
