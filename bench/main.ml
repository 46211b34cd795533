(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on this machine, plus the ablations called
   out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- fig9 fig11   -- selected experiments
     dune exec bench/main.exe -- --quick ...  -- shorter timing windows

   Experiments: counts accuracy fig8 fig9 fig10 fig11 exponent-range
                ablation-layout ablations application codec

   Absolute numbers are OCaml-on-one-core, not Zen 5/M3 silicon; the
   claims under reproduction are the RATIOS and RANKINGS (who wins, by
   roughly what factor).  EXPERIMENTS.md records paper-vs-measured. *)

let min_time = ref 0.30
let rng = Random.State.make [| 0xbe7c; 42 |]

module Json_out = Obs.Json_out

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

(* Throughput of [f] in billions of extended-precision operations per
   second ([ops] operations per call, mul+add convention), with its
   spread.  A batch of calls lasting >= ~3 ms is calibrated first; then
   batches are timed for about [!min_time] seconds, and the rate is
   ops x batch / median batch wall. *)
let gops_sample ~ops f =
  let run batch () = for _ = 1 to batch do f () done in
  let rec calibrate batch =
    let s, () = Obs.Sample.time ~reps:1 (run batch) in
    if s.median < 3e-3 && batch < 1 lsl 20 then calibrate (batch * 4) else (batch, s.median)
  in
  let batch, dt = calibrate 1 in
  let s, () = Obs.Sample.time ~reps:(max 5 (int_of_float (!min_time /. dt))) (run batch) in
  let work = Float.of_int ops *. Float.of_int batch *. 1e-9 in
  (work /. s.median, Obs.Sample.to_json ~work s)

let gops ~ops f = fst (gops_sample ~ops f)

(* ------------------------------------------------------------------ *)
(* Kernel benchmarks over a Numeric instance                           *)

(* Which data layout a spec benchmarks: the classic array-of-records
   path, or the planar (structure-of-arrays) batch kernels — the
   OCaml analogue of the paper's cross-element SIMD vectorization. *)
type arith =
  | Scalar of (module Blas.Numeric.S)
  | Batched of (module Blas.Numeric.BATCHED)

type spec = {
  label : string;
  bits : int;
  vec_n : int; (* AXPY/DOT length *)
  mv_n : int; (* GEMV size (n x n) *)
  mm_n : int; (* GEMM size (n x n x n) *)
  num : arith;
}

let layout_name = function Scalar _ -> "aos" | Batched _ -> "planar"

type kernel =
  | Axpy
  | Dot
  | Gemv
  | Gemm

let kernel_name = function Axpy -> "AXPY" | Dot -> "DOT" | Gemv -> "GEMV" | Gemm -> "GEMM"
let all_kernels = [ Axpy; Dot; Gemv; Gemm ]

let random_floats n = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0)

let bench_cell_scalar (module N : Blas.Numeric.S) spec kernel =
  let module K = Blas.Kernels.Make (N) in
  match kernel with
  | Axpy ->
      let n = spec.vec_n in
      let x = K.vec_of_floats (random_floats n) in
      let y = K.vec_of_floats (random_floats n) in
      let alpha = N.of_float 0.999999 in
      gops_sample ~ops:n (fun () -> K.axpy ~alpha ~x ~y)
  | Dot ->
      let n = spec.vec_n in
      let x = K.vec_of_floats (random_floats n) in
      let y = K.vec_of_floats (random_floats n) in
      let sink = ref N.zero in
      gops_sample ~ops:n (fun () -> sink := K.dot ~x ~y)
  | Gemv ->
      let n = spec.mv_n in
      let a = K.vec_of_floats (random_floats (n * n)) in
      let x = K.vec_of_floats (random_floats n) in
      let y = Array.make n N.zero in
      gops_sample ~ops:(n * n) (fun () -> K.gemv ~m:n ~n ~a ~x ~y)
  | Gemm ->
      let n = spec.mm_n in
      let a = K.vec_of_floats (random_floats (n * n)) in
      let b = K.vec_of_floats (random_floats (n * n)) in
      let c = Array.make (n * n) N.zero in
      gops_sample ~ops:(n * n * n) (fun () -> K.gemm ~m:n ~n ~k:n ~a ~b ~c)

(* The parallel substrate for the planar rows: one shared
   work-stealing scheduler (lib/runtime), sized to the machine. *)
let sched = lazy (Runtime.Sched.create ())

let sched_rt () = Lazy.force sched

let bench_cell_batched (module N : Blas.Numeric.BATCHED) spec kernel =
  let module K = Blas.Kernels.Make_batched (N) in
  let rt = sched_rt () in
  match kernel with
  | Axpy ->
      let n = spec.vec_n in
      let x = K.vec_of_floats (random_floats n) in
      let y = K.vec_of_floats (random_floats n) in
      let alpha = N.of_float 0.999999 in
      gops_sample ~ops:n (fun () -> K.axpy_rt rt ~alpha ~x ~y)
  | Dot ->
      let n = spec.vec_n in
      let x = K.vec_of_floats (random_floats n) in
      let y = K.vec_of_floats (random_floats n) in
      let sink = ref N.zero in
      gops_sample ~ops:n (fun () -> sink := K.dot_rt rt ~x ~y)
  | Gemv ->
      let n = spec.mv_n in
      let a = K.vec_of_floats (random_floats (n * n)) in
      let x = K.vec_of_floats (random_floats n) in
      let y = K.V.create n in
      gops_sample ~ops:(n * n) (fun () -> K.gemv_rt rt ~m:n ~n ~a ~x ~y)
  | Gemm ->
      let n = spec.mm_n in
      let a = K.vec_of_floats (random_floats (n * n)) in
      let b = K.vec_of_floats (random_floats (n * n)) in
      let c = K.V.create (n * n) in
      gops_sample ~ops:(n * n * n) (fun () -> K.gemm_rt rt ~m:n ~n ~k:n ~a ~b ~c ())

let bench_cell spec kernel =
  match spec.num with
  | Scalar num -> bench_cell_scalar num spec kernel
  | Batched num -> bench_cell_batched num spec kernel

(* Size classes: fast expansion arithmetic vs the (orders of magnitude
   slower) software FPU.  Throughput in ops/s is what is reported, so
   the differing problem sizes only control wall-clock per cell. *)
let fast_sizes = (2048, 64, 24)
let slow_sizes = (192, 24, 12)

let mk label bits (vn, gn, mn) num =
  { label; bits; vec_n = vn; mv_n = gn; mm_n = mn; num = Scalar num }

let mkb label bits (vn, gn, mn) num =
  { label; bits; vec_n = vn; mv_n = gn; mm_n = mn; num = Batched num }

(* ------------------------------------------------------------------ *)
(* Library zoo for the CPU tables                                      *)

(* Both MultiFloat<double,1> and CAMPARY at one term ARE native double
   (as in the paper's Figure 9, where their 53-bit rows agree to within
   noise); share one spec so the measurement is taken once. *)
let double_spec = mk "double" 53 fast_sizes (module Blas.Instances.Double)

(* The headline MultiFloat row runs the planar (SoA) batch kernels;
   the same arithmetics over arrays of boxed records ride along as the
   layout ablation (`ablation-layout`, AoS rows below). *)
let multifloats_row =
  [| Some (mkb "double" 53 fast_sizes (module Blas.Instances.Double));
     Some (mkb "MultiFloats (ours)" 103 fast_sizes (module Blas.Instances.Mf2));
     Some (mkb "MultiFloats (ours)" 156 fast_sizes (module Blas.Instances.Mf3));
     Some (mkb "MultiFloats (ours)" 208 fast_sizes (module Blas.Instances.Mf4)) |]

let aos_row =
  [| Some double_spec;
     Some (mk "MultiFloats (AoS)" 103 fast_sizes (module Blas.Instances.Mf2));
     Some (mk "MultiFloats (AoS)" 156 fast_sizes (module Blas.Instances.Mf3));
     Some (mk "MultiFloats (AoS)" 208 fast_sizes (module Blas.Instances.Mf4)) |]

let softfpu_row =
  [| Some (mk "SoftFPU (MPFR-class)" 53 slow_sizes (module Blas.Instances.Fpu53));
     Some (mk "SoftFPU (MPFR-class)" 103 slow_sizes (module Blas.Instances.Fpu103));
     Some (mk "SoftFPU (MPFR-class)" 156 slow_sizes (module Blas.Instances.Fpu156));
     Some (mk "SoftFPU (MPFR-class)" 208 slow_sizes (module Blas.Instances.Fpu208)) |]

let qd_row =
  [| None;
     Some (mk "QD" 103 fast_sizes (module Blas.Instances.Qd_dd));
     None;
     Some (mk "QD" 208 fast_sizes (module Blas.Instances.Qd_qd)) |]

let campary_row =
  [| Some double_spec;
     Some (mk "CAMPARY (certified)" 103 fast_sizes (module Blas.Instances.Campary2));
     Some (mk "CAMPARY (certified)" 156 fast_sizes (module Blas.Instances.Campary3));
     Some (mk "CAMPARY (certified)" 208 fast_sizes (module Blas.Instances.Campary4)) |]

let arb_row =
  [| Some (mk "Ball/Arb (FLINT-class)" 53 slow_sizes (module Blas.Instances.Arb53));
     Some (mk "Ball/Arb (FLINT-class)" 103 slow_sizes (module Blas.Instances.Arb103));
     Some (mk "Ball/Arb (FLINT-class)" 156 slow_sizes (module Blas.Instances.Arb156));
     Some (mk "Ball/Arb (FLINT-class)" 208 slow_sizes (module Blas.Instances.Arb208)) |]

let cpu_rows =
  [ ("MultiFloats (ours)", multifloats_row);
    ("MultiFloats (AoS ablation)", aos_row);
    ("SoftFPU (MPFR-class)", softfpu_row);
    ("Ball/Arb (FLINT-class)", arb_row);
    ("QD", qd_row);
    ("CAMPARY (certified)", campary_row) ]

(* No-FMA architecture proxy for Figure 10: the MultiFloat row uses
   the same multiplication FPANs with TwoProd realized by Dekker
   splitting instead of a hardware FMA (see DESIGN.md). *)
module Nofma2 : Blas.Numeric.S with type t = Multifloat.Mf2.t = struct
  include Blas.Instances.Mf2

  let mul = Multifloat.Mf2.mul_no_fma
end

module Nofma3 : Blas.Numeric.S with type t = Multifloat.Mf3.t = struct
  include Blas.Instances.Mf3

  let mul = Multifloat.Mf3.mul_no_fma
end

module Nofma4 : Blas.Numeric.S with type t = Multifloat.Mf4.t = struct
  include Blas.Instances.Mf4

  let mul = Multifloat.Mf4.mul_no_fma
end

let nofma_row =
  [| Some double_spec;
     Some (mk "MultiFloats (ours)" 103 fast_sizes (module Nofma2));
     Some (mk "MultiFloats (ours)" 156 fast_sizes (module Nofma3));
     Some (mk "MultiFloats (ours)" 208 fast_sizes (module Nofma4)) |]

let nofma_rows =
  [ ("MultiFloats (ours)", nofma_row);
    ("SoftFPU (MPFR-class)", softfpu_row);
    ("Ball/Arb (FLINT-class)", arb_row);
    ("QD", qd_row);
    ("CAMPARY (certified)", campary_row) ]

(* ------------------------------------------------------------------ *)
(* Table rendering                                                     *)

(* Each measured cell: median Gop/s and its spread. *)
let memo : (spec * kernel * (float * Json_out.t)) list ref = ref []

let bench_cell_memo spec kernel =
  match List.find_opt (fun (s, k, _) -> s == spec && k = kernel) !memo with
  | Some (_, _, g) -> g
  | None ->
      let g = bench_cell spec kernel in
      memo := (spec, kernel, g) :: !memo;
      g

let default_cols = [| "53-bit"; "103-bit"; "156-bit"; "208-bit" |]

let print_table ?(cols = default_cols) title rows kernel =
  Printf.printf "\n%s %s Performance (Gop/s)\n" title (kernel_name kernel);
  Printf.printf "%-26s" "Library";
  Array.iter (Printf.printf " %10s") cols;
  print_newline ();
  let results =
    List.map
      (fun (label, row) ->
        let cells =
          Array.map
            (function
              | None -> None
              | Some spec -> Some (spec, bench_cell_memo spec kernel))
            row
        in
        (label, cells))
      rows
  in
  List.iter
    (fun (label, cells) ->
      Printf.printf "%-26s" label;
      Array.iter
        (function
          | None -> Printf.printf " %10s" "N/A"
          | Some (_, (g, _)) -> Printf.printf " %10.4f" g)
        cells;
      print_newline ())
    results;
  results

(* Machine-readable mirror of the printed tables (satellite of the
   layout refactor): one object per kernel, one cell per measured
   (library, precision) point, layout recorded per cell. *)

let kernel_n spec = function
  | Axpy | Dot -> spec.vec_n
  | Gemv -> spec.mv_n
  | Gemm -> spec.mm_n


let json_of_tables tables =
  Json_out.List
    (List.map
       (fun (kernel, rows) ->
         Json_out.Obj
           [ ("kernel", Json_out.Str (kernel_name kernel));
             ( "rows",
               Json_out.List
                 (List.map
                    (fun (label, cells) ->
                      Json_out.Obj
                        [ ("label", Json_out.Str label);
                          ( "cells",
                            Json_out.List
                              (Array.to_list cells
                              |> List.filter_map (function
                                   | None -> None
                                   | Some (spec, (g, spread)) ->
                                       Some
                                         (Json_out.Obj
                                            [ ("name", Json_out.Str spec.label);
                                              ("bits", Json_out.Num (Float.of_int spec.bits));
                                              ("layout", Json_out.Str (layout_name spec.num));
                                              ( "n",
                                                Json_out.Num (Float.of_int (kernel_n spec kernel))
                                              );
                                              ("gops", Json_out.Num g);
                                              ("spread", spread) ]))) ) ])
                    rows) ) ])
       tables)

(* Planar-over-AoS speedup per kernel and precision, from the two
   MultiFloat rows of the fig9 tables. *)
let layout_speedups tables =
  List.concat_map
    (fun (kernel, rows) ->
      match
        ( List.assoc_opt "MultiFloats (ours)" rows,
          List.assoc_opt "MultiFloats (AoS ablation)" rows )
      with
      | Some planar, Some aos ->
          List.filter_map
            (fun p ->
              match (planar.(p), aos.(p)) with
              | Some (spec, (gp, _)), Some (_, (ga, _)) when ga > 0.0 ->
                  Some
                    (Json_out.Obj
                       [ ("kernel", Json_out.Str (kernel_name kernel));
                         ("bits", Json_out.Num (Float.of_int spec.bits));
                         ("planar_over_aos", Json_out.Num (gp /. ga)) ])
              | _ -> None)
            [ 0; 1; 2; 3 ]
      | _ -> [])
    tables

let write_table_json ?(extra = []) ~file ~experiment ~note tables =
  if tables <> [] then begin
    let speedups = layout_speedups tables in
    let fields =
      [ ("experiment", Json_out.Str experiment);
        ("units", Json_out.Str "Gop/s");
        ("note", Json_out.Str note);
        ("isa", Json_out.Str (Multifloat.Batch.isa ()));
        ("tables", json_of_tables tables) ]
      @ (if speedups = [] then [] else [ ("layout_speedup", Json_out.List speedups) ])
      @ extra
    in
    Json_out.write_file file (Json_out.Obj fields)
  end

(* Execution-telemetry block for BENCH_fig9.json: run the tiled
   103-bit runtime GEMM on a fresh scheduler and serialize the
   per-worker counters, reset after the warmup so they cover exactly
   the timed reps ([window_wall_s]).  Two workers minimum so the steal
   machinery is actually exercised (on a one-core box the domains
   time-slice; the counters stay exact either way). *)
let sched_telemetry_block () =
  let n, reps = if !min_time < 0.2 then (96, 3) else (256, 5) in
  let workers = max 2 (Domain.recommended_domain_count ()) in
  let module K = Blas.Kernels.Make_batched (Blas.Instances.Mf2) in
  Runtime.Sched.with_sched ~workers (fun rt ->
      let a = K.vec_of_floats (random_floats (n * n)) in
      let b = K.vec_of_floats (random_floats (n * n)) in
      let c = K.V.create (n * n) in
      let wall, () =
        Obs.Sample.time ~reps
          ~after_warmup:(fun () -> Runtime.Sched.reset_stats rt)
          (fun () -> K.gemm_rt rt ~m:n ~n ~k:n ~a ~b ~c ())
      in
      let per_worker = Runtime.Sched.stats_json (Runtime.Sched.stats rt) in
      ( "sched",
        Json_out.Obj
          [ ("engine", Json_out.Str "work-stealing tiled runtime (lib/runtime)");
            ("kernel", Json_out.Str "GEMM");
            ("bits", Json_out.Num 103.0);
            ("n", Json_out.Num (Float.of_int n));
            ("workers", Json_out.Num (Float.of_int workers));
            ( "tile",
              let cfg = Runtime.Engine.default_cfg in
              Json_out.Str (Printf.sprintf "%dx%d" cfg.tile_m cfg.tile_n) );
            ("wall_s", Json_out.Num wall.median);
            ("spread", Obs.Sample.to_json wall);
            ("window_wall_s", Json_out.Num wall.total);
            ("per_worker", per_worker) ] ))

let fig9 () =
  print_endline "\n=== Figure 9 (CPU tables): AXPY/DOT/GEMV/GEMM at 53/103/156/208 bits ===";
  print_endline "(this machine; paper values are AMD Zen 5 -- compare rankings and ratios)";
  List.map (fun k -> (k, print_table "CPU" cpu_rows k)) all_kernels

let fig10 () =
  print_endline "\n=== Figure 10 (second architecture): no-FMA proxy (see DESIGN.md) ===";
  print_endline "(paper: Apple M3 with narrow SIMD; here: TwoProd via Dekker splitting,";
  print_endline " which shrinks the multiplication advantage the same way)";
  List.map (fun k -> (k, print_table "no-FMA" nofma_rows k)) all_kernels

let fig8 results =
  print_endline "\n=== Figure 8: ratio of MultiFloats peak over next-best library ===";
  Printf.printf "%-6s %10s %10s %10s %10s\n" "" "53-bit" "103-bit" "156-bit" "208-bit";
  List.iter
    (fun (kernel, table) ->
      let ours = List.assoc "MultiFloats (ours)" table in
      Printf.printf "%-6s" (kernel_name kernel);
      for p = 0 to 3 do
        let best_other =
          List.fold_left
            (fun acc (label, cells) ->
              (* every MultiFloats row is ours — the AoS ablation must
                 not count as a competing library *)
              if String.starts_with ~prefix:"MultiFloats" label then acc
              else match cells.(p) with None -> acc | Some (_, (g, _)) -> Float.max acc g)
            0.0 table
        in
        match ours.(p) with
        | Some (_, (g, _)) when best_other > 0.0 -> Printf.printf " %9.2fx" (g /. best_other)
        | _ -> Printf.printf " %10s" "-"
      done;
      print_newline ())
    results

let fig11 () =
  print_endline "\n=== Figure 11 (GPU substitute): MultiFloat<float32, N> data-parallel ===";
  print_endline "(paper: AMD RDNA3 with T = float; here: emulated binary32 base, planar";
  print_endline " batched layout through the generic Of_scalar fallback)";
  let specs =
    [| Some (mkb "1-term" 24 fast_sizes (module Blas.Instances.Gpu1));
       Some (mkb "2-term" 49 fast_sizes (module Blas.Instances.Gpu2));
       Some (mkb "3-term" 74 fast_sizes (module Blas.Instances.Gpu3));
       Some (mkb "4-term" 99 fast_sizes (module Blas.Instances.Gpu4)) |]
  in
  let cols = [| "1-term"; "2-term"; "3-term"; "4-term" |] in
  List.map
    (fun kernel -> (kernel, print_table ~cols "GPU(f32)" [ ("MultiFloat<f32,N>", specs) ] kernel))
    all_kernels

(* Focused console view of the tentpole layout claim: same FPAN wire
   sequences, same accumulation order (results bitwise identical —
   test/test_batch.ml), different memory layout.  Cells are shared with
   the fig9 rows, so when fig9 already ran these are free. *)
let ablation_layout () =
  print_endline "\n=== Ablation: planar SoA batch kernels vs AoS record arrays ===";
  Printf.printf "%-6s %6s %12s %12s %10s\n" "kernel" "bits" "planar" "AoS" "speedup";
  List.iter
    (fun kernel ->
      Array.iteri
        (fun p planar ->
          match (planar, aos_row.(p)) with
          | Some sp, Some sa ->
              let gp = fst (bench_cell_memo sp kernel) and ga = fst (bench_cell_memo sa kernel) in
              Printf.printf "%-6s %6d %12.4f %12.4f %9.2fx\n" (kernel_name kernel) sp.bits gp ga
                (gp /. ga)
          | _ -> ())
        multifloats_row)
    all_kernels;
  print_endline "(the planar path wins twice: no boxed-record pointer chase, and the";
  print_endline " generated plane loops replace one non-inlined closure call per";
  print_endline " element-op — which is why even the 53-bit row speeds up)"

(* ------------------------------------------------------------------ *)
(* Structural counts (Section 4 claims; Figures 2-7 parameters)        *)

let counts () =
  print_endline "\n=== FPAN structure: size / depth / flops (Figures 2-7) ===";
  Printf.printf "%-6s %6s %6s %6s %14s %22s\n" "net" "size" "depth" "flops" "paper (sz,dep)" "error bound";
  let paper = [ ("add2", "(6,4)"); ("add3", "(14,8)"); ("add4", "(26,11)"); ("mul2", "(3,3)");
                ("mul3", "(12,7)"); ("mul4", "(27,10)") ] in
  List.iter
    (fun (name, net) ->
      Printf.printf "%-6s %6d %6d %6d %14s %22s\n" name (Fpan.Network.size net)
        (Fpan.Network.depth net) (Fpan.Network.flops net) (List.assoc name paper)
        (Printf.sprintf "2^-%d" net.Fpan.Network.error_exp))
    Fpan.Networks.all;
  print_endline "\nMultiplication totals (Section 4.2: n(n-1)/2 TwoProds + n products + FPAN):";
  List.iter
    (fun n -> Printf.printf "  %d-term multiply: %d flops\n" n (Fpan.Networks.mul_flops n))
    [ 2; 3; 4 ];
  print_endline "\nStatic no-cancellation certificates (SMT-verifier substitute, DESIGN.md):";
  List.iter
    (fun (name, net) ->
      let kind =
        if String.sub name 0 3 = "mul" then Fpan.Analyze.Mul_inputs (Fpan.Network.size net |> fun _ ->
          int_of_string (String.sub name 3 1))
        else Fpan.Analyze.Add_inputs (int_of_string (String.sub name 3 1))
      in
      let r = Fpan.Analyze.analyze net kind in
      Printf.printf "  %-6s claimed 2^-%d; statically proved 2^%d (no-cancellation regime)\n" name
        net.Fpan.Network.error_exp r.Fpan.Analyze.discarded_total_exponent)
    Fpan.Networks.all

(* ------------------------------------------------------------------ *)
(* Accuracy backstop (checker-driven; Figures 2-7 error bounds)        *)

let accuracy () =
  print_endline "\n=== Accuracy: randomized verification of the FPAN error bounds ===";
  let cases = if !min_time < 0.2 then 50_000 else 300_000 in
  Printf.printf "%-6s %10s %14s %16s %10s\n" "net" "cases" "failures" "worst error" "bound";
  List.iter
    (fun (name, net) ->
      let terms = int_of_string (String.sub name 3 1) in
      let report =
        if String.sub name 0 3 = "mul" then
          Fpan.Checker.check_mul net ~terms ~expand:(Fpan.Networks.mul_expand terms) ~cases
            ~seed:20250704
        else Fpan.Checker.check_add net ~terms ~cases ~seed:20250704
      in
      Printf.printf "%-6s %10d %14d %15.2f %10s\n" name report.Fpan.Checker.cases_run
        report.Fpan.Checker.failure_count report.Fpan.Checker.worst_error_log2
        (Printf.sprintf "2^-%d" net.Fpan.Network.error_exp))
    Fpan.Networks.all

(* ------------------------------------------------------------------ *)
(* Section 4.4: exponent range limits of low-precision base types      *)

module type EXP_MEASURE = sig
  type t

  val of_float : float -> t
  val components : t -> float array
  val add : t -> t -> t
  val mul : t -> t -> t
end

let exponent_range () =
  print_endline "\n=== Section 4.4: expansions cannot extend the exponent range ===";
  print_endline "(effective precision of n-term expansions; the paper: precision is lost";
  print_endline " 'at roughly 4 terms in single precision and just 2 terms in half precision')";
  let rng2 = Random.State.make [| 44; 11 |] in
  let measure (type a) ?(step = 53) ?(terms = 1) (module G : EXP_MEASURE with type t = a) =
    (* worst relative error of mul over random full-width inputs near
       scale 1: each operand carries [terms] components separated by
       the base precision. *)
    let rand_full () =
      let acc = ref (G.of_float (1.0 +. Random.State.float rng2 1.0)) in
      for i = 1 to terms - 1 do
        acc :=
          G.add !acc (G.of_float (Float.ldexp (Random.State.float rng2 2.0 -. 1.0) (-i * step)))
      done;
      !acc
    in
    let worst = ref 0.0 in
    for _ = 1 to 2000 do
      let x = rand_full () in
      let y = rand_full () in
      let p = G.mul x y in
      let exact =
        Exact.mul
          (Exact.sum_floats (G.components x))
          (Exact.sum_floats (G.components y))
      in
      let diff = Array.fold_left Exact.grow exact (Array.map Float.neg (G.components p)) in
      let d = Float.abs (Exact.approx (Exact.compress diff)) in
      let r = Float.abs (Exact.approx (Exact.compress exact)) in
      if r > 0.0 && d /. r > !worst then worst := d /. r
    done;
    if !worst = 0.0 then Float.infinity else -.Float.log2 !worst
  in
  let module H1 = Multifloat.Generic.Make (Gpu32.F16) (struct let terms = 1 end) in
  let module H2 = Multifloat.Generic.Make (Gpu32.F16) (struct let terms = 2 end) in
  let module H3 = Multifloat.Generic.Make (Gpu32.F16) (struct let terms = 3 end) in
  let module H4 = Multifloat.Generic.Make (Gpu32.F16) (struct let terms = 4 end) in
  Printf.printf "%-22s %8s %8s %8s %8s\n" "base type" "1-term" "2-term" "3-term" "4-term";
  Printf.printf "%-22s %8.1f %8.1f %8.1f %8.1f   (ideal 11/23/35/47)\n" "binary16 (5-bit exp)"
    (measure ~step:11 ~terms:1 (module H1))
    (measure ~step:11 ~terms:2 (module H2))
    (measure ~step:11 ~terms:3 (module H3))
    (measure ~step:11 ~terms:4 (module H4));
  Printf.printf "%-22s %8.1f %8.1f %8.1f %8.1f   (ideal 24/49/74/99)\n" "binary32 (8-bit exp)"
    (measure ~step:24 ~terms:1 (module Gpu32.Gpu.Mf1))
    (measure ~step:24 ~terms:2 (module Gpu32.Gpu.Mf2))
    (measure ~step:24 ~terms:3 (module Gpu32.Gpu.Mf3))
    (measure ~step:24 ~terms:4 (module Gpu32.Gpu.Mf4));
  let module D1 = struct
    type t = float

    let of_float x = x
    let components x = [| x |]
    let add = ( +. )
    let mul = ( *. )
  end in
  Printf.printf "%-22s %8.1f %8.1f %8.1f %8.1f   (ideal 53/103/156/208)\n" "binary64 (11-bit exp)"
    (measure ~step:53 ~terms:1 (module D1))
    (measure ~step:53 ~terms:2 (module Multifloat.Mf2))
    (measure ~step:53 ~terms:3 (module Multifloat.Mf3))
    (measure ~step:53 ~terms:4 (module Multifloat.Mf4));
  print_endline "\nbinary16 saturates after ~2 terms (the third term falls below the";
  print_endline "underflow threshold), reproducing the Section 4.4 claim."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let raw_op_gops (type a) (module N : Blas.Numeric.S with type t = a) op =
  let xs = Array.init 256 (fun _ -> N.of_float (Random.State.float rng 2.0 -. 1.0)) in
  let sink = ref xs.(0) in
  gops ~ops:256 (fun () ->
      for i = 0 to 254 do
        sink := op xs.(i) xs.(i + 1)
      done;
      sink := op !sink xs.(0))

let ablations () =
  print_endline "\n=== Ablations (design choices called out in DESIGN.md) ===";

  print_endline "\n[ablation-fma] TwoProd via hardware FMA vs Dekker splitting:";
  let xs = random_floats 1024 in
  let sink = ref 0.0 in
  let g_fma =
    gops ~ops:1024 (fun () ->
        for i = 0 to 1022 do
          let p, e = Eft.two_prod xs.(i) xs.(i + 1) in
          sink := !sink +. p +. e
        done)
  in
  let g_dek =
    gops ~ops:1024 (fun () ->
        for i = 0 to 1022 do
          let p, e = Eft.two_prod_dekker xs.(i) xs.(i + 1) in
          sink := !sink +. p +. e
        done)
  in
  Printf.printf "  two_prod (FMA)    : %8.4f Gop/s\n" g_fma;
  Printf.printf "  two_prod (Dekker) : %8.4f Gop/s   (%.2fx slower)\n" g_dek (g_fma /. g_dek);

  print_endline "\n[ablation-renorm] raw ADD throughput: branch-free FPAN vs branching baselines:";
  Printf.printf "  4-term FPAN add (ours)      : %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Mf4) Multifloat.Mf4.add);
  Printf.printf "  4-term QD add (branching)   : %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Qd_qd) Baselines.Qd_qd.add);
  Printf.printf "  4-term CAMPARY certified    : %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Campary4) Baselines.Campary.add);
  Printf.printf "  2-term FPAN add (ours)      : %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Mf2) Multifloat.Mf2.add);
  Printf.printf "  2-term QD add (ieee)        : %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Qd_dd) Baselines.Qd_dd.add);
  Printf.printf "  2-term QD add (sloppy/WRONG): %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Qd_dd) Baselines.Qd_dd.sloppy_add);

  print_endline "\n[ablation-commutativity] mul3 with vs without the commutativity layer:";
  (* Non-commutative variant: drop the initial TwoSum pairing of
     (p01, p10) in favor of sequential adds -- one gate cheaper. *)
  let noncomm a b =
    match (Multifloat.Mf3.components a, Multifloat.Mf3.components b) with
    | [| a0; a1; a2 |], [| b0; b1; b2 |] ->
        let w0, w3 = Eft.two_prod a0 b0 in
        let w1, w7 = Eft.two_prod a0 b1 in
        let w2, w8 = Eft.two_prod a1 b0 in
        let o2 = (a0 *. b2) +. (a1 *. b1) +. (a2 *. b0) +. w7 +. w8 in
        let w1, w2 = Eft.two_sum w1 w2 in
        let w1, w3 = Eft.two_sum w1 w3 in
        let o2 = o2 +. w2 +. w3 in
        let w1, o2 = Eft.two_sum w1 o2 in
        let w0, w1 = Eft.two_sum w0 w1 in
        let w1, o2 = Eft.two_sum w1 o2 in
        Multifloat.Mf3.of_components [| w0; w1; o2 |]
    | _ -> assert false
  in
  Printf.printf "  commutative mul3 (ours)     : %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Mf3) Multifloat.Mf3.mul);
  Printf.printf "  non-commutative variant     : %8.4f Gop/s\n"
    (raw_op_gops (module Blas.Instances.Mf3) noncomm);
  let asym = ref 0 in
  let rng2 = Random.State.make [| 5; 6 |] in
  for _ = 1 to 5000 do
    let a = Multifloat.Mf3.of_components (Fpan.Gen.expansion rng2 ~n:3 ~e0_min:(-8) ~e0_max:8 ()) in
    let b = Multifloat.Mf3.of_components (Fpan.Gen.expansion rng2 ~n:3 ~e0_min:(-8) ~e0_max:8 ()) in
    if Multifloat.Mf3.components (noncomm a b) <> Multifloat.Mf3.components (noncomm b a) then
      incr asym
  done;
  Printf.printf "  (non-commutative variant: ab <> ba on %d / 5000 random inputs;\n" !asym;
  Printf.printf "   ours: 0 by construction -- see examples/complex_conjugate.ml)\n";

  print_endline "\n[ablation-compensated] ~2-fold-precision dot products (Section 6 related work):";
  let n = 2048 in
  let xf = random_floats n and yf = random_floats n in
  let sinkf = ref 0.0 in
  let g_dot2 = gops ~ops:n (fun () -> sinkf := Blas.Compensated.dot2 xf yf) in
  let module KM2 = Blas.Kernels.Make (Blas.Instances.Mf2) in
  let xm = KM2.vec_of_floats xf and ym = KM2.vec_of_floats yf in
  let sinkm = ref Blas.Instances.Mf2.zero in
  let g_mf2 = gops ~ops:n (fun () -> sinkm := KM2.dot ~x:xm ~y:ym) in
  let g_oz = gops ~ops:n (fun () -> sinkf := Blas.Ozaki.dot xf yf) in
  Printf.printf "  Dot2 (Ogita-Rump, float in/out) : %8.4f Gop/s\n" g_dot2;
  Printf.printf "  Mf2 dot (composable 107-bit)    : %8.4f Gop/s\n" g_mf2;
  Printf.printf "  Ozaki slice dot (4 slices)      : %8.4f Gop/s\n" g_oz;
  Printf.printf "  (Dot2 is faster but returns only a double and composes no further;\n";
  Printf.printf "   the Ozaki scheme extends exponent range at a large constant cost --\n";
  Printf.printf "   the Section 4.4 trade-offs, quantified.)\n";

  print_endline "\n[ablation-sortnet] branchy magnitude merge vs fixed comparator schedule (Section 6):";
  let rng3 = Random.State.make [| 9; 9 |] in
  let pairs =
    Array.init 256 (fun _ -> Fpan.Gen.pair rng3 ~n:4 ~e0_min:(-40) ~e0_max:40 ())
  in
  let net8 = Fpan.Sortnet.batcher 8 in
  let sink_arr = ref [||] in
  let g_campary =
    gops ~ops:256 (fun () ->
        Array.iter (fun (x, y) -> sink_arr := Baselines.Campary.add x y) pairs)
  in
  let g_sortnet =
    gops ~ops:256 (fun () ->
        Array.iter
          (fun (x, y) ->
            let v = Array.append x y in
            Fpan.Sortnet.sort_floats_by_magnitude net8 v;
            sink_arr := Baselines.Campary.renormalize v 4)
          pairs)
  in
  let g_fpan =
    gops ~ops:256 (fun () ->
        Array.iter
          (fun (x, y) ->
            sink_arr :=
              Multifloat.Mf4.components
                (Multifloat.Mf4.add (Multifloat.Mf4.of_components x) (Multifloat.Mf4.of_components y)))
          pairs)
  in
  Printf.printf "  CAMPARY add (branchy merge)     : %8.4f Gop/s\n" g_campary;
  Printf.printf "  sorting-network merge + renorm  : %8.4f Gop/s\n" g_sortnet;
  Printf.printf "  FPAN add (ours, no merge at all): %8.4f Gop/s\n" g_fpan;

  print_endline "\n[ablation-newton] 208-bit division: Newton-Raphson vs software long division:";
  let mf4_div = raw_op_gops (module Blas.Instances.Mf4) Multifloat.Mf4.div in
  let fpu_div =
    let module B = Baselines.Fpu_emul.P208 in
    let xs = Array.init 64 (fun i -> B.of_float (1.5 +. Float.of_int i)) in
    let sink = ref xs.(0) in
    gops ~ops:64 (fun () ->
        for i = 0 to 62 do
          sink := B.div xs.(i) xs.(i + 1)
        done;
        sink := xs.(0))
  in
  Printf.printf "  Mf4 Newton division         : %8.4f Gop/s\n" mf4_div;
  Printf.printf "  SoftFPU long division       : %8.4f Gop/s   (%.1fx slower)\n" fpu_div
    (mf4_div /. fpu_div)

(* ------------------------------------------------------------------ *)
(* Application benchmark: mixed-precision iterative refinement         *)

let application () =
  print_endline "\n=== Application: solving to 215-bit accuracy (n = 80 dense system) ===";
  print_endline "(the introduction's workload: extended-precision linear algebra)";
  let n = 80 in
  let rng4 = Random.State.make [| 3; 14 |] in
  let a = Array.init (n * n) (fun _ -> Random.State.float rng4 2.0 -. 1.0) in
  for i = 0 to n - 1 do
    a.((i * n) + i) <- 8.0 +. Float.abs a.((i * n) + i)
  done;
  let module L = Linalg.Make (Multifloat.Mf4) in
  let module R = Linalg.Refine (Multifloat.Mf4) in
  let am = L.mat_of_floats a in
  let x_true = Array.init n (fun i -> Multifloat.Mf4.div (Multifloat.Mf4.of_int (i + 1)) (Multifloat.Mf4.of_int 7)) in
  let b = L.mat_vec ~n am x_true in
  let err x =
    let w = ref 0.0 in
    Array.iteri
      (fun i xi -> w := Float.max !w (Float.abs (Multifloat.Mf4.to_float (Multifloat.Mf4.sub xi x_true.(i)))))
      x;
    !w
  in
  let reps = if !min_time < 0.2 then 1 else 3 in
  let t_direct, x1 = Obs.Sample.time ~reps (fun () -> L.solve ~n am b) in
  let t_refine, (x2, stats) = Obs.Sample.time ~reps (fun () -> R.solve ~n ~a ~b ()) in
  let module RB = Linalg.Refine_batched (Multifloat.Mf4) (Multifloat.Batch.Mf4v) in
  let t_refine_b, (x3, stats_b) = Obs.Sample.time ~reps (fun () -> RB.solve ~n ~a ~b ()) in
  let bitwise_same =
    Array.for_all2
      (fun u v -> Multifloat.Mf4.components u = Multifloat.Mf4.components v)
      x2 x3
  in
  Printf.printf "  (median wall of %d run%s each)\n" reps (if reps = 1 then "" else "s");
  Printf.printf "  direct LU in Mf4 arithmetic : %8.3f s   (err %.1e)\n" t_direct.median (err x1);
  Printf.printf "  double LU + Mf4 refinement  : %8.3f s   (err %.1e, %d iterations)\n"
    t_refine.median (err x2) stats.R.iterations;
  Printf.printf "  same, planar (SoA) residual : %8.3f s   (err %.1e, %d iterations%s)\n"
    t_refine_b.median (err x3) stats_b.RB.iterations
    (if bitwise_same then ", bitwise identical" else ", RESULTS DIFFER");
  Printf.printf "  speedup from mixed precision: %8.1fx\n" (t_direct.median /. t_refine.median);
  print_endline "  (refinement amortizes the O(n^3) factorization into doubles and";
  print_endline "   keeps only O(n^2) extended-precision work per iteration)"

(* ------------------------------------------------------------------ *)
(* Wire codec rung (BENCH_codec.json)                                  *)

(* [reps] timed calls of [f] (each doing [count] units of work) as a
   per-unit median in [unit_s] with its spread, plus the minor words one
   call allocates per unit. *)
let codec_cell ~reps ~count ~unit_s f =
  let s, () = Obs.Sample.time ~reps f in
  let w0 = Gc.minor_words () in
  f ();
  let words = (Gc.minor_words () -. w0) /. float_of_int count in
  let k = 1.0 /. (float_of_int count *. unit_s) in
  let per =
    { s with median = s.median *. k; q1 = s.q1 *. k; q3 = s.q3 *. k; total = s.total *. k }
  in
  (per.Obs.Sample.median, Obs.Sample.to_json per, words)

let codec () =
  print_endline "\n=== Wire codec: hex-float components and length-256 requests ===";
  let module P = Serve.Protocol in
  let reps = if !min_time < 0.2 then 21 else 201 in
  let sink = ref 0 in
  (* finite components spread over 2^-200 .. 2^200, both signs *)
  let values =
    Array.init 4096 (fun _ ->
        Float.ldexp (Random.State.float rng 2.0 -. 1.0) (Random.State.int rng 401 - 200))
  in
  let wires = Array.map P.float_to_wire values in
  let count = Array.length values in
  (* the codec before the C primitives, as the baseline rows *)
  let printf_h c =
    if Float.is_nan c then Printf.sprintf "nan:%Lx" (Int64.bits_of_float c)
    else Printf.sprintf "%h" c
  in
  let component (dir, impl, run) =
    let ns, spread, words = codec_cell ~reps ~count ~unit_s:1e-9 run in
    Printf.printf "  %-6s %-20s %8.1f ns  %5.1f minor words / component\n" dir impl ns words;
    Json_out.Obj
      [ ("direction", Json_out.Str dir); ("impl", Json_out.Str impl); ("ns", Json_out.Num ns);
        ("spread", spread); ("minor_words", Json_out.Num words) ]
  in
  let each a f () = Array.iter (fun v -> sink := !sink + f v) a in
  let used = function Some f -> Float.to_int f land 1 | None -> 0 in
  let components =
    List.map component
      [ ("encode", "c_primitive", each values (fun c -> String.length (P.float_to_wire c)));
        ("encode", "printf_h", each values (fun c -> String.length (printf_h c)));
        ("decode", "c_primitive", each wires (fun s -> used (P.float_of_wire s)));
        ("decode", "float_of_string_opt", each wires (fun s -> used (float_of_string_opt s))) ]
  in
  (* one serve_batch-shaped request per tier: dot over length 256 *)
  let len = 256 in
  let requests =
    List.concat_map
      (fun tier ->
        let terms = P.tier_terms tier in
        let operand () =
          Array.init len (fun _ ->
              let hi = Random.State.float rng 2.0 -. 1.0 in
              Array.init terms (fun j ->
                  Float.ldexp hi (-53 * j) *. (1.0 +. Random.State.float rng 0.5)))
        in
        let req =
          { P.id = 4242; op = P.Dot; tier; sla = None; deadline_ms = None; prog = [];
            x = operand (); y = operand (); z = [||] }
        in
        let frame = Json_out.to_string_compact (P.request_to_json req) in
        let comps = 2 * len * terms in
        let row path run =
          let us, spread, words = codec_cell ~reps ~count:1 ~unit_s:1e-6 run in
          Printf.printf
            "  %s dot n=%d  %-18s %8.1f us  %7.0f minor words  (%d components, %d bytes)\n"
            (P.tier_name tier) len path us words comps (String.length frame);
          Json_out.Obj
            [ ("tier", Json_out.Str (P.tier_name tier)); ("op", Json_out.Str "dot");
              ("len", Json_out.Num (float_of_int len));
              ("components", Json_out.Num (float_of_int comps));
              ("bytes", Json_out.Num (float_of_int (String.length frame)));
              ("path", Json_out.Str path); ("us", Json_out.Num us); ("spread", spread);
              ("minor_words", Json_out.Num words) ]
        in
        let encode =
          row "tree_encode" (fun () ->
              sink := !sink + String.length (Json_out.to_string_compact (P.request_to_json req)))
        in
        let decode =
          row "tree_decode" (fun () ->
              match Result.bind (Json_out.parse frame) P.request_of_json with
              | Ok r -> sink := !sink + Array.length r.P.x
              | Error e -> failwith e)
        in
        let single_pass =
          row "single_pass_decode" (fun () ->
              match P.request_of_frame frame with
              | Some r -> sink := !sink + Array.length r.P.x
              | None -> failwith "single-pass decode declined a compact frame")
        in
        [ encode; decode; single_pass ])
      [ P.Mf2; P.Mf3; P.Mf4 ]
  in
  ignore (Sys.opaque_identity !sink);
  Json_out.write_file "BENCH_codec.json"
    (Json_out.Obj
       [ ("schema", Json_out.Str "fpan-bench-codec/1");
         ("env", Obs.Env.json ~isa:(Multifloat.Batch.isa ()) ~cc:(Multifloat.Batch.cc ()));
         ("reps", Json_out.Num (float_of_int reps));
         ("component_count", Json_out.Num (float_of_int count));
         ("components", Json_out.List components);
         ("requests", Json_out.List requests) ])

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    if List.mem "--quick" args then begin
      min_time := 0.05;
      List.filter (fun a -> a <> "--quick") args
    end
    else args
  in
  let selected =
    if args = [] then
      [ "counts"; "accuracy"; "fig9"; "fig8"; "fig10"; "fig11"; "exponent-range";
        "ablation-layout"; "ablations"; "application"; "codec" ]
    else args
  in
  let want x = List.mem x selected in
  Printf.printf "MultiFloats benchmark harness (min window per cell: %.2fs, planar kernels %s)\n"
    !min_time (Multifloat.Batch.isa ());
  if want "counts" then counts ();
  if want "accuracy" then accuracy ();
  let fig9_results = if want "fig9" || want "fig8" then fig9 () else [] in
  let sched_extra = if fig9_results = [] then [] else [ sched_telemetry_block () ] in
  write_table_json ~extra:sched_extra ~file:"BENCH_fig9.json" ~experiment:"fig9"
    ~note:"CPU tables; MultiFloats (ours) = planar SoA batch kernels (runtime-scheduled), AoS ablation = same arithmetic over boxed record arrays"
    fig9_results;
  if want "fig8" then fig8 fig9_results;
  let fig10_results = if want "fig10" then fig10 () else [] in
  write_table_json ~file:"BENCH_fig10.json" ~experiment:"fig10"
    ~note:"no-FMA architecture proxy (TwoProd via Dekker splitting); scalar AoS path"
    fig10_results;
  let fig11_results = if want "fig11" then fig11 () else [] in
  write_table_json ~file:"BENCH_fig11.json" ~experiment:"fig11"
    ~note:"emulated-binary32 MultiFloat types, planar layout via the generic Of_scalar fallback"
    fig11_results;
  if want "exponent-range" then exponent_range ();
  if want "ablation-layout" then ablation_layout ();
  if want "ablations" then ablations ();
  if want "application" then application ();
  if want "codec" then codec ();
  if Lazy.is_val sched then Runtime.Sched.shutdown (Lazy.force sched);
  print_endline "\nDone."
