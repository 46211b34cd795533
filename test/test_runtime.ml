(* Tests for lib/runtime: the Chase-Lev deque, the work-stealing
   scheduler, and the tiled engine.

   The load-bearing property is DETERMINISM: every engine kernel must
   return bitwise-identical results at any worker count, and
   GEMM/GEMV/AXPY must be bitwise equal to the sequential batched
   kernels (the scheduler only moves work, never changes the
   accumulation order).  Worker counts under test include 1 (inline),
   2, 4, and an oversubscribed 8 (the CI box may have a single core);
   FPAN_TEST_DOMAINS adds an extra count from the environment. *)

module Sched = Runtime.Sched
module Deque = Runtime.Deque

let worker_counts =
  let base = [ 1; 2; 4; 8 ] in
  match Sys.getenv_opt "FPAN_TEST_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 && not (List.mem d base) -> base @ [ d ]
      | _ -> base)
  | None -> base

(* ------------------------------------------------------------------ *)
(* Deque *)

let test_deque_lifo_fifo () =
  let d = Deque.create ~capacity:16 () in
  Alcotest.(check bool) "empty" true (Deque.is_empty d);
  for i = 0 to 9 do
    Alcotest.(check bool) "push" true (Deque.push d i)
  done;
  (* owner pops newest *)
  Alcotest.(check (option int)) "pop lifo" (Some 9) (Deque.pop d);
  (* thief steals oldest *)
  Alcotest.(check (option int)) "steal fifo" (Some 0) (Deque.steal d);
  Alcotest.(check (option int)) "steal next" (Some 1) (Deque.steal d)

let test_deque_full_rejects () =
  let d = Deque.create ~capacity:4 () in
  for i = 0 to 3 do
    ignore (Deque.push d i)
  done;
  Alcotest.(check bool) "full push rejected" false (Deque.push d 99);
  ignore (Deque.steal d);
  Alcotest.(check bool) "slot freed" true (Deque.push d 99)

let test_deque_exactly_once_concurrent () =
  (* One owner pushing/popping, several thieves stealing: every element
     must surface exactly once across pop and steal. *)
  let n = 20_000 in
  let d = Deque.create ~capacity:32768 () in
  let seen = Array.make n (Atomic.make 0) in
  for i = 0 to n - 1 do
    seen.(i) <- Atomic.make 0
  done;
  let claim i = Atomic.incr seen.(i) in
  let stop = Atomic.make false in
  let thieves =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              match Deque.steal d with
              | Some i -> claim i
              | None -> Domain.cpu_relax ()
            done))
  in
  for i = 0 to n - 1 do
    while not (Deque.push d i) do
      (* full: pop one ourselves to make room *)
      match Deque.pop d with Some j -> claim j | None -> ()
    done;
    if i land 7 = 0 then match Deque.pop d with Some j -> claim j | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some j ->
        claim j;
        drain ()
    | None -> if not (Deque.is_empty d) then drain ()
  in
  drain ();
  (* let thieves finish any in-flight steal, then stop them *)
  while not (Deque.is_empty d) do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) seen;
  Alcotest.(check int) "every element exactly once" 0 !bad

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_sched_reduce_matches_seq () =
  let n = 100_000 in
  let expect = n * (n - 1) / 2 in
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          let s =
            Sched.parallel_reduce rt ~grain:64 ~lo:0 ~hi:n
              ~leaf:(fun lo hi ->
                let acc = ref 0 in
                for i = lo to hi - 1 do
                  acc := !acc + i
                done;
                !acc)
              ( + )
          in
          Alcotest.(check int) (Printf.sprintf "sum @%d workers" w) expect s))
    worker_counts

let test_sched_for_covers () =
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          Sched.parallel_for rt ~grain:16 ~lo:0 ~hi:n (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "cover @%d workers" w)
            true
            (Array.for_all (fun h -> h = 1) hits)))
    worker_counts

let test_sched_float_reduce_bitwise_across_workers () =
  (* The reduction tree shape is fixed by (lo, hi, grain): float sums
     must be bitwise identical for every worker count. *)
  let n = 65_537 in
  let data = Array.init n (fun i -> Float.sin (Float.of_int i)) in
  let via w =
    Sched.with_sched ~workers:w (fun rt ->
        Sched.parallel_reduce rt ~grain:100 ~lo:0 ~hi:n
          ~leaf:(fun lo hi ->
            let acc = ref 0.0 in
            for i = lo to hi - 1 do
              acc := !acc +. data.(i)
            done;
            !acc)
          ( +. ))
  in
  let reference = via (List.hd worker_counts) in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "bitwise @%d workers" w)
        true
        (Int64.equal (Int64.bits_of_float reference) (Int64.bits_of_float (via w))))
    worker_counts

let test_sched_exception_propagates () =
  Sched.with_sched ~workers:4 (fun rt ->
      let raised =
        match
          Sched.parallel_for rt ~lo:0 ~hi:1000 (fun lo _ -> if lo >= 500 then failwith "task-boom")
        with
        | () -> false
        | exception Failure _ -> true
      in
      Alcotest.(check bool) "exception propagated" true raised;
      (* scheduler still usable after the failed run *)
      let s =
        Sched.parallel_reduce rt ~lo:0 ~hi:100
          ~leaf:(fun lo hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + i
            done;
            !acc)
          ( + )
      in
      Alcotest.(check int) "alive after exception" 4950 s)

let test_sched_nested_run () =
  Sched.with_sched ~workers:2 (fun rt ->
      let v = Sched.run rt (fun () -> Sched.run rt (fun () -> 42)) in
      Alcotest.(check int) "nested run inline" 42 v)

let test_sched_shutdown_under_load_and_reuse () =
  (* Repeated create/heavy-use/shutdown must neither deadlock nor leak
     wedged domains. *)
  for _ = 1 to 5 do
    Sched.with_sched ~workers:4 (fun rt ->
        for _ = 1 to 20 do
          Sched.parallel_for rt ~grain:8 ~lo:0 ~hi:2000 (fun lo hi -> ignore (hi - lo))
        done)
  done;
  Alcotest.(check pass) "no deadlock" () ()

let test_sched_shutdown_idempotent () =
  let rt = Sched.create ~workers:3 () in
  Sched.shutdown rt;
  Sched.shutdown rt;
  let raised = match Sched.run rt (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "run after shutdown rejected" true raised

(* ------------------------------------------------------------------ *)
(* Pool contract: the loop-level guarantees of a worker pool, held by
   the scheduler at its default grain of 1 (one task per index) *)

let sum_leaf lo hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + i
  done;
  !acc

let raised_failure f = match f () with () -> None | exception Failure msg -> Some msg

let test_pool_for_covers () =
  Sched.with_sched ~workers:4 (fun rt ->
      let hits = Array.make 1000 0 in
      Sched.parallel_for rt ~lo:0 ~hi:1000 (fun lo _ -> hits.(lo) <- hits.(lo) + 1);
      Alcotest.(check bool) "each index once" true (Array.for_all (fun h -> h = 1) hits))

let test_pool_empty_range () =
  Sched.with_sched ~workers:2 (fun rt ->
      let fired = ref false in
      Sched.parallel_for rt ~lo:5 ~hi:5 (fun _ _ -> fired := true);
      Alcotest.(check bool) "empty range" false !fired)

let test_pool_reduce_sum () =
  Sched.with_sched ~workers:3 (fun rt ->
      let n = 10_000 in
      Alcotest.(check int) "gauss" (n * (n - 1) / 2) (Sched.parallel_reduce rt ~lo:0 ~hi:n ~leaf:sum_leaf ( + )))

let test_pool_reduce_deterministic () =
  let data = Array.init 5000 (fun i -> Float.sin (Float.of_int i)) in
  let via () =
    Sched.with_sched ~workers:4 (fun rt ->
        Sched.parallel_reduce rt ~lo:0 ~hi:5000 ~leaf:(fun lo _ -> data.(lo)) ( +. ))
  in
  let a = via () and b = via () in
  Alcotest.(check bool) "same scheduler size reproducible" true
    (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let test_pool_reuse () =
  Sched.with_sched ~workers:2 (fun rt ->
      for _ = 1 to 50 do
        let acc = Atomic.make 0 in
        Sched.parallel_for rt ~lo:0 ~hi:100 (fun _ _ -> Atomic.incr acc);
        Alcotest.(check int) "reused loop" 100 (Atomic.get acc)
      done)

let test_pool_single_worker () =
  Sched.with_sched ~workers:1 (fun rt ->
      Alcotest.(check int) "size" 1 (Sched.size rt);
      Alcotest.(check int) "inline" 4950 (Sched.parallel_reduce rt ~lo:0 ~hi:100 ~leaf:sum_leaf ( + )))

let test_pool_exception_in_task () =
  Sched.with_sched ~workers:3 (fun rt ->
      Alcotest.(check (option string)) "propagated" (Some "boom")
        (raised_failure (fun () ->
             Sched.parallel_for rt ~lo:0 ~hi:100 (fun lo _ -> if lo = 50 then failwith "boom")));
      Alcotest.(check int) "alive after exception" 45 (Sched.parallel_reduce rt ~lo:0 ~hi:10 ~leaf:sum_leaf ( + )))

(* Only the last leaf raises: it sits in the subtree forked first (the
   one a thief steals, or the root's join helps through), never in the
   caller's inline path.  It must still re-raise on the caller, and the
   scheduler must run another loop afterwards. *)
let test_pool_exception_in_last_subtree () =
  Sched.with_sched ~workers:4 (fun rt ->
      Alcotest.(check (option string)) "last-leaf exception propagated" (Some "w")
        (raised_failure (fun () ->
             Sched.parallel_for rt ~lo:0 ~hi:100 (fun lo _ -> if lo = 99 then failwith "w")));
      let hits = Array.make 100 0 in
      Sched.parallel_for rt ~lo:0 ~hi:100 (fun lo _ -> hits.(lo) <- hits.(lo) + 1);
      Alcotest.(check bool) "next loop covers" true (Array.for_all (fun h -> h = 1) hits))

(* A 1-worker scheduler has no thieves: the caller runs every task of
   the tree itself, through its joins, without deadlocking. *)
let test_pool_single_worker_drains () =
  Sched.with_sched ~workers:1 (fun rt ->
      Sched.reset_stats rt;
      let hits = Array.make 64 0 in
      Sched.parallel_for rt ~lo:0 ~hi:64 (fun lo _ -> hits.(lo) <- hits.(lo) + 1);
      Alcotest.(check bool) "all leaves ran" true (Array.for_all (fun h -> h = 1) hits);
      let st = (Sched.stats rt).(0) in
      Alcotest.(check int) "nothing stolen" 0 st.Sched.steals;
      (* 63 forks + the root *)
      Alcotest.(check int) "every task on the caller" 64 st.Sched.tasks_executed)

(* Every forked sibling is joined, so one raising leaf leaves the rest
   of the loop to run to completion before the exception surfaces. *)
let test_pool_exception_runs_rest () =
  Sched.with_sched ~workers:1 (fun rt ->
      let hits = Array.make 6 0 in
      let raised =
        raised_failure (fun () ->
            Sched.parallel_for rt ~lo:0 ~hi:6 (fun lo _ -> if lo = 2 then failwith "mid" else hits.(lo) <- 1))
      in
      Alcotest.(check (option string)) "raised" (Some "mid") raised;
      Alcotest.(check bool) "other tasks still ran" true
        (List.for_all (fun i -> i = 2 || hits.(i) = 1) [ 0; 1; 2; 3; 4; 5 ]))

let test_pool_large_fanout () =
  Sched.with_sched ~workers:4 (fun rt ->
      Alcotest.(check int) "alternating" 0
        (Sched.parallel_reduce rt ~lo:0 ~hi:100_000 ~leaf:(fun lo _ -> if lo land 1 = 0 then 1 else -1) ( + )))

let test_pool_default_workers () =
  Sched.with_sched (fun rt -> Alcotest.(check bool) "at least one" true (Sched.size rt >= 1))

(* ------------------------------------------------------------------ *)
(* Engine: bitwise determinism of the BLAS kernels *)

module N2 = Blas.Instances.Mf2
module N3 = Blas.Instances.Mf3
module K2 = Blas.Kernels.Make_batched (N2)
module K3 = Blas.Kernels.Make_batched (N3)

module Gen (N : Blas.Numeric.BATCHED) = struct
  (* random planar vectors with non-trivial tails, so accumulation
     order differences would actually show up in the bits *)
  let vec n seed =
    let st = Random.State.make [| seed; n |] in
    N.V.of_array
      (Array.init n (fun _ ->
           N.add
             (N.of_float (Random.State.float st 2.0 -. 1.0))
             (N.of_float (Float.ldexp (Random.State.float st 1.0) (-40)))))
end

module Gen2 = Gen (N2)
module Gen3 = Gen (N3)

let floats_equal_bitwise a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let check_bitwise name a b = Alcotest.(check bool) name true (floats_equal_bitwise a b)

let test_engine_gemm_bitwise_mf2 () =
  let m = 23 and n = 17 and k = 31 in
  let a = Gen2.vec (m * k) 1 in
  let b = Gen2.vec (k * n) 2 in
  (* sequential reference *)
  let c_ref = K2.V.create (m * n) in
  K2.gemm ~m ~n ~k ~a ~b ~c:c_ref;
  let reference = K2.vec_to_floats c_ref in
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          (* deliberately awkward tile size to exercise edge tiles *)
          List.iter
            (fun tile ->
              let c = K2.V.create (m * n) in
              K2.gemm_rt rt ?tile ~m ~n ~k ~a ~b ~c ();
              check_bitwise
                (Printf.sprintf "gemm @%d workers tile=%s" w
                   (match tile with None -> "default" | Some (tm, tn) -> Printf.sprintf "%dx%d" tm tn))
                reference (K2.vec_to_floats c))
            [ None; Some (8, 8); Some (5, 7); Some (64, 64) ]))
    worker_counts

let test_engine_gemm_accumulates () =
  (* C <- C + A B semantics: a warm C must accumulate, exactly like
     the sequential kernel. *)
  let m = 9 and n = 11 and k = 7 in
  let a = Gen2.vec (m * k) 3 in
  let b = Gen2.vec (k * n) 4 in
  let c0 = Gen2.vec (m * n) 5 in
  let c_ref = K2.V.copy c0 in
  K2.gemm ~m ~n ~k ~a ~b ~c:c_ref;
  Sched.with_sched ~workers:3 (fun rt ->
      let c = K2.V.copy c0 in
      K2.gemm_rt rt ~m ~n ~k ~a ~b ~c ();
      check_bitwise "warm C accumulation" (K2.vec_to_floats c_ref) (K2.vec_to_floats c))

let test_engine_gemv_bitwise_mf3 () =
  let m = 41 and n = 29 in
  let a = Gen3.vec (m * n) 6 in
  let x = Gen3.vec n 7 in
  let y_ref = K3.V.create m in
  K3.gemv ~m ~n ~a ~x ~y:y_ref;
  let reference = K3.vec_to_floats y_ref in
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          let y = K3.V.create m in
          K3.gemv_rt rt ~m ~n ~a ~x ~y;
          check_bitwise (Printf.sprintf "gemv @%d workers" w) reference (K3.vec_to_floats y)))
    worker_counts

let test_engine_axpy_bitwise_mf2 () =
  let n = 10_007 in
  let alpha = N2.of_float 1.5 in
  let x = Gen2.vec n 8 in
  let y0 = Gen2.vec n 9 in
  let y_ref = K2.V.copy y0 in
  K2.axpy ~alpha ~x ~y:y_ref;
  let reference = K2.vec_to_floats y_ref in
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          let y = K2.V.copy y0 in
          K2.axpy_rt rt ~alpha ~x ~y;
          check_bitwise (Printf.sprintf "axpy @%d workers" w) reference (K2.vec_to_floats y)))
    worker_counts

let test_engine_dot_deterministic_across_workers () =
  (* DOT's reduction tree differs from the sequential fold, but must be
     identical across worker counts. *)
  let n = 30_011 in
  let x = Gen2.vec n 10 in
  let y = Gen2.vec n 11 in
  let via w = Sched.with_sched ~workers:w (fun rt -> N2.to_float (K2.dot_rt rt ~x ~y)) in
  let reference = via (List.hd worker_counts) in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "dot bitwise @%d workers" w)
        true
        (Int64.equal (Int64.bits_of_float reference) (Int64.bits_of_float (via w))))
    worker_counts;
  (* and it is numerically the same dot product *)
  let seq = N2.to_float (K2.dot ~x ~y) in
  Alcotest.(check bool)
    "tree dot close to sequential dot" true
    (Float.abs (reference -. seq) <= 1e-12 *. Float.max 1.0 (Float.abs seq))

(* GEMV and the residual run on [dot_rows], whole lane groups per leaf:
   bitwise the scalar element-record fold of [Kernels.Make] (the
   residual: that GEMV, then [sub] from b), NaN payload included, for
   row counts around the lane width and at 1, 2 and 4 workers. *)
module S3 = Blas.Kernels.Make (N3)

let test_engine_gemv_rows_vs_scalar () =
  let module M3 = Multifloat.Mf3 in
  let n = 70 and lanes = K3.V.lanes in
  let same p q = floats_equal_bitwise (M3.components p) (M3.components q) in
  List.iter
    (fun m ->
      let a = Gen3.vec (m * n) (100 + m) and x = Gen3.vec n 101 and b = Gen3.vec m 102 in
      (* one row holds two NaNs with distinct payloads *)
      let nan_row = m / 2 in
      K3.V.set a ((nan_row * n) + 3)
        (M3.of_components
           [| Int64.float_of_bits 0x7ff0000000000001L; Int64.float_of_bits 0xfff8000000000002L; 0.0 |]);
      let sa = K3.V.to_array a and sx = K3.V.to_array x and sb = K3.V.to_array b in
      let y_ref = Array.make m N3.zero in
      S3.gemv ~m ~n ~a:sa ~x:sx ~y:y_ref;
      let r_ref = Array.mapi (fun i bi -> M3.sub bi y_ref.(i)) sb in
      Alcotest.(check bool) "the NaN row is NaN" true (Float.is_nan (M3.to_float y_ref.(nan_row)));
      List.iter
        (fun w ->
          Sched.with_sched ~workers:w (fun rt ->
              let check what want v =
                Array.iteri
                  (fun i e ->
                    if not (same e (K3.V.get v i)) then
                      Alcotest.failf "%s m=%d row %d @%d workers differs from the scalar fold" what m i w)
                  want
              in
              let y = K3.V.create m in
              K3.gemv_rt rt ~m ~n ~a ~x ~y;
              check "gemv_rt" y_ref y;
              let r = K3.V.create m in
              K3.gemv_rt rt ~m ~n ~a ~x ~y:r;
              K3.V.sub ~dst:r b r;
              check "gemv_rt then sub" r_ref r))
        [ 1; 2; 4 ])
    [ 1; lanes - 1; lanes + 1; 37; 1000 ]

(* ------------------------------------------------------------------ *)
(* Refinement through the runtime *)

module Refine2 = Linalg.Refine_batched (Multifloat.Mf2) (Multifloat.Batch.Mf2v)

let test_refine_rt_bitwise () =
  let n = 24 in
  let st = Random.State.make [| 77 |] in
  (* diagonally dominant -> LU stable, refinement converges *)
  let a =
    Array.init (n * n) (fun idx ->
        let i = idx / n and j = idx mod n in
        if i = j then 4.0 +. Random.State.float st 1.0 else Random.State.float st 0.5 /. Float.of_int n)
  in
  let b = Array.init n (fun i -> Multifloat.Mf2.of_float (Float.sin (Float.of_int i))) in
  let x_seq, s_seq = Refine2.solve ~n ~a ~b () in
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          let x_rt, s_rt = Refine2.solve ~rt ~n ~a ~b () in
          Alcotest.(check int) (Printf.sprintf "iters @%d" w) s_seq.iterations s_rt.iterations;
          Alcotest.(check bool)
            (Printf.sprintf "solution bitwise @%d" w)
            true
            (Array.for_all2
               (fun p q ->
                 floats_equal_bitwise
                   (Multifloat.Mf2.components p)
                   (Multifloat.Mf2.components q))
               x_seq x_rt)))
    worker_counts;
  Alcotest.(check bool) "converged" true s_seq.converged

(* The planar solver's trajectory is the scalar [Linalg.Refine]'s: the
   same iteration count, final residual and solution bits, with the
   residual on the runtime's lane-group GEMV leaves at 1 and 4
   workers. *)
module Refine2s = Linalg.Refine (Multifloat.Mf2)
module Refine4 = Linalg.Refine_batched (Multifloat.Mf4) (Multifloat.Batch.Mf4v)
module Refine4s = Linalg.Refine (Multifloat.Mf4)

let test_refine_rt_vs_scalar () =
  let n = 45 in
  let st = Random.State.make [| 78 |] in
  let a =
    Array.init (n * n) (fun idx ->
        let i = idx / n and j = idx mod n in
        if i = j then 3.0 +. Random.State.float st 1.0 else Random.State.float st 1.0 /. Float.of_int n)
  in
  let check name (iters, res, xs) (iters', res', xs') =
    Alcotest.(check int) (name ^ " iterations") iters iters';
    Alcotest.(check bool) (name ^ " final residual bitwise") true (floats_equal_bitwise [| res |] [| res' |]);
    Alcotest.(check bool) (name ^ " solution bitwise") true (List.for_all2 floats_equal_bitwise xs xs')
  in
  let b2 = Array.init n (fun i -> Multifloat.Mf2.of_float (Float.cos (Float.of_int i))) in
  let b4 = Array.init n (fun i -> Multifloat.Mf4.of_float (Float.cos (Float.of_int i))) in
  let x, s = Refine2s.solve ~n ~a ~b:b2 () in
  let want2 = (s.iterations, s.final_residual_norm, Array.to_list (Array.map Multifloat.Mf2.components x)) in
  let x, s = Refine4s.solve ~n ~a ~b:b4 () in
  let want4 = (s.iterations, s.final_residual_norm, Array.to_list (Array.map Multifloat.Mf4.components x)) in
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          let x, s = Refine2.solve ~rt ~n ~a ~b:b2 () in
          check (Printf.sprintf "mf2 @%d" w) want2
            (s.iterations, s.final_residual_norm, Array.to_list (Array.map Multifloat.Mf2.components x));
          let x, s = Refine4.solve ~rt ~n ~a ~b:b4 () in
          check (Printf.sprintf "mf4 @%d" w) want4
            (s.iterations, s.final_residual_norm, Array.to_list (Array.map Multifloat.Mf4.components x))))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_telemetry_flops_and_tasks () =
  Sched.with_sched ~workers:2 (fun rt ->
      Sched.reset_stats rt;
      let m = 16 and n = 16 and k = 16 in
      let a = Gen2.vec (m * k) 20 in
      let b = Gen2.vec (k * n) 21 in
      let c = K2.V.create (m * n) in
      K2.gemm_rt rt ~m ~n ~k ~a ~b ~c ();
      let st = Sched.stats rt in
      let total_flops = Array.fold_left (fun acc s -> acc + s.Sched.tile_flops) 0 st in
      let total_tasks = Array.fold_left (fun acc s -> acc + s.Sched.tasks_executed) 0 st in
      Alcotest.(check int) "flops = m*n*k" (m * n * k) total_flops;
      Alcotest.(check bool) "tasks executed" true (total_tasks > 0);
      Array.iter
        (fun s ->
          let f = Sched.busy_fraction s in
          Alcotest.(check bool) "busy fraction in [0,1]" true (f >= 0.0 && f <= 1.0))
        st;
      Sched.reset_stats rt;
      let st = Sched.stats rt in
      Alcotest.(check int) "reset clears flops" 0
        (Array.fold_left (fun acc s -> acc + s.Sched.tile_flops) 0 st))

(* reset_stats between runs must be exact even with live (parked)
   worker domains: the snapshot after a reset is all-zero, and the
   counters of the next run are not polluted by anything from before
   the reset — in particular no idle time leaks across it from a
   worker that was parked while the reset happened. *)
let test_reset_stats_exact_between_runs w =
  Sched.with_sched ~workers:w (fun rt ->
      let work () = Sched.parallel_for rt ~lo:0 ~hi:256 (fun _ _ -> ()) in
      work ();
      (* let in-flight spin iterations finish and the workers park:
         a worker that saw active > 0 just before the run ended may
         still account one ~0.2ms idle slice after it *)
      Unix.sleepf 0.05;
      Sched.reset_stats rt;
      Array.iter
        (fun s ->
          Alcotest.(check int) "tasks zero" 0 s.Sched.tasks_executed;
          Alcotest.(check int) "steals zero" 0 s.Sched.steals;
          Alcotest.(check int) "attempts zero" 0 s.Sched.steal_attempts;
          Alcotest.(check int) "helps zero" 0 s.Sched.join_helps;
          Alcotest.(check int) "flops zero" 0 s.Sched.tile_flops;
          Alcotest.(check (float 0.0)) "busy zero" 0.0 s.Sched.busy_seconds;
          Alcotest.(check (float 0.0)) "idle zero" 0.0 s.Sched.idle_seconds)
        (Sched.stats rt);
      (* park the workers well past the reset, then run again: if the
         park interval leaked into idle_seconds, the total would
         exceed the post-reset wall time by the sleep duration *)
      let parked_s = 0.3 in
      Unix.sleepf parked_s;
      let t0 = Unix.gettimeofday () in
      work ();
      let wall = Unix.gettimeofday () -. t0 in
      let stats = Sched.stats rt in
      let idle = Array.fold_left (fun acc s -> acc +. s.Sched.idle_seconds) 0.0 stats in
      Alcotest.(check bool)
        (Printf.sprintf "no parked time in idle (idle %.4f, wall %.4f)" idle wall)
        true
        (idle <= Float.of_int w *. wall +. (parked_s /. 2.0));
      (* the task count is exact and worker-count independent: one
         task per fork (255 internal splits of 256 leaves) + the root *)
      let tasks = Array.fold_left (fun acc s -> acc + s.Sched.tasks_executed) 0 stats in
      Alcotest.(check int) "exact task count after reset" 256 tasks)

let test_reset_stats_1 () = test_reset_stats_exact_between_runs 1
let test_reset_stats_4 () = test_reset_stats_exact_between_runs 4

(* Busy time is wall time spent executing top-level work, so no worker
   can be busy for longer than the run lasted: the root's span covers
   every task its joins help through, and those must not be timed a
   second time. *)
let test_busy_within_wall () =
  let n = 160 in
  let a = Gen2.vec (n * n) 22 in
  let b = Gen2.vec (n * n) 23 in
  List.iter
    (fun w ->
      Sched.with_sched ~workers:w (fun rt ->
          K2.gemm_rt rt ~m:n ~n ~k:n ~a ~b ~c:(K2.V.create (n * n)) ();
          Sched.reset_stats rt;
          let t0 = Unix.gettimeofday () in
          K2.gemm_rt rt ~m:n ~n ~k:n ~a ~b ~c:(K2.V.create (n * n)) ();
          let wall = Unix.gettimeofday () -. t0 in
          let busy = Array.fold_left (fun acc s -> acc +. s.Sched.busy_seconds) 0.0 (Sched.stats rt) in
          Alcotest.(check bool)
            (Printf.sprintf "busy %.4f s <= %d x wall %.4f s @%d workers" busy w wall w)
            true
            (busy <= Float.of_int w *. wall *. 1.05)))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* QCheck: random shapes stay bitwise equal to the sequential kernel *)

let qcheck_gemm_random_shapes =
  QCheck.Test.make ~count:25 ~name:"runtime gemm bitwise == sequential (random shapes)"
    QCheck.(triple (int_range 1 40) (int_range 1 40) (int_range 1 40))
    (fun (m, n, k) ->
      let a = Gen2.vec (m * k) (m + (100 * n)) in
      let b = Gen2.vec (k * n) (n + (100 * k)) in
      let c_ref = K2.V.create (m * n) in
      K2.gemm ~m ~n ~k ~a ~b ~c:c_ref;
      let ok =
        Sched.with_sched ~workers:3 (fun rt ->
            let c = K2.V.create (m * n) in
            K2.gemm_rt rt ~tile:(8, 8) ~m ~n ~k ~a ~b ~c ();
            floats_equal_bitwise (K2.vec_to_floats c_ref) (K2.vec_to_floats c))
      in
      ok)

let qcheck_dot_worker_invariance =
  QCheck.Test.make ~count:25 ~name:"runtime dot bitwise-invariant in worker count"
    QCheck.(int_range 1 5000)
    (fun n ->
      let x = Gen3.vec n (n + 1) in
      let y = Gen3.vec n (n + 2) in
      let via w = Sched.with_sched ~workers:w (fun rt -> N3.to_float (K3.dot_rt rt ~x ~y)) in
      Int64.equal (Int64.bits_of_float (via 1)) (Int64.bits_of_float (via 4)))

let () =
  Alcotest.run "runtime"
    [ ( "deque",
        [ Alcotest.test_case "lifo/fifo ends" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "full rejects" `Quick test_deque_full_rejects;
          Alcotest.test_case "exactly-once concurrent" `Quick test_deque_exactly_once_concurrent ] );
      ( "sched",
        [ Alcotest.test_case "reduce matches seq" `Quick test_sched_reduce_matches_seq;
          Alcotest.test_case "for covers" `Quick test_sched_for_covers;
          Alcotest.test_case "float reduce bitwise" `Quick
            test_sched_float_reduce_bitwise_across_workers;
          Alcotest.test_case "exception propagates" `Quick test_sched_exception_propagates;
          Alcotest.test_case "nested run" `Quick test_sched_nested_run;
          Alcotest.test_case "shutdown under load" `Quick test_sched_shutdown_under_load_and_reuse;
          Alcotest.test_case "shutdown idempotent" `Quick test_sched_shutdown_idempotent ] );
      ( "pool",
        [ Alcotest.test_case "parallel_for covers" `Quick test_pool_for_covers;
          Alcotest.test_case "empty range" `Quick test_pool_empty_range;
          Alcotest.test_case "reduce sum" `Quick test_pool_reduce_sum;
          Alcotest.test_case "reduce deterministic" `Quick test_pool_reduce_deterministic;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "single domain" `Quick test_pool_single_worker;
          Alcotest.test_case "exception in job" `Quick test_pool_exception_in_task;
          Alcotest.test_case "exception from worker chunk" `Quick test_pool_exception_in_last_subtree;
          Alcotest.test_case "run_batch 1-domain drains" `Quick test_pool_single_worker_drains;
          Alcotest.test_case "run_batch exception runs rest" `Quick test_pool_exception_runs_rest;
          Alcotest.test_case "large fanout" `Quick test_pool_large_fanout;
          Alcotest.test_case "default domains" `Quick test_pool_default_workers ] );
      ( "engine",
        [ Alcotest.test_case "gemm bitwise mf2" `Quick test_engine_gemm_bitwise_mf2;
          Alcotest.test_case "gemm accumulates" `Quick test_engine_gemm_accumulates;
          Alcotest.test_case "gemv bitwise mf3" `Quick test_engine_gemv_bitwise_mf3;
          Alcotest.test_case "gemv/residual rows = scalar fold" `Quick test_engine_gemv_rows_vs_scalar;
          Alcotest.test_case "axpy bitwise mf2" `Quick test_engine_axpy_bitwise_mf2;
          Alcotest.test_case "dot deterministic" `Quick test_engine_dot_deterministic_across_workers ] );
      ( "refine",
        [ Alcotest.test_case "refine ?rt bitwise" `Quick test_refine_rt_bitwise;
          Alcotest.test_case "refine ?rt = scalar refine" `Quick test_refine_rt_vs_scalar ] );
      ( "telemetry",
        [ Alcotest.test_case "flops and tasks" `Quick test_telemetry_flops_and_tasks;
          Alcotest.test_case "reset exact @1 worker" `Quick test_reset_stats_1;
          Alcotest.test_case "reset exact @4 workers" `Quick test_reset_stats_4;
          Alcotest.test_case "busy within wall" `Quick test_busy_within_wall ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest qcheck_gemm_random_shapes;
          QCheck_alcotest.to_alcotest qcheck_dot_worker_invariance ] ) ]
