(* The ladder below the kernels: EFT primitives, scalar MultiFloat
   operations and planar element loops, each timed over a fixed
   cache-resident array, plus the f64 GEMM reference and the LU part
   of a solve.  The same probe runs in every traced run, so these
   rungs measure the same thing on every workload. *)

module Mf2 = Multifloat.Mf2
module Mf4 = Multifloat.Mf4
module Kd = Blas.Kernels.Make_batched (Blas.Instances.Double)

let n = 4096
let samples = 5
let min_ns = 1e7

let now = Obs.Clock.now_ns

(* Median over [samples] of ns per element of [f], which processes
   [n] elements per call; each sample repeats [f] for at least
   [min_ns]. *)
let ns_per_elt f =
  f ();
  let one () =
    let t0 = now () in
    let reps = ref 0 in
    while now () -. t0 < min_ns do
      f ();
      incr reps
    done;
    (now () -. t0) /. float_of_int (!reps * n)
  in
  Sample.median (List.init samples (fun _ -> one ()))

let run ~seed sched =
  let st = Gen.state ~seed ~stream:11 0 in
  let fl () = Array.init n (fun _ -> (Gen.expansion st 1).(0)) in
  let xs = fl () and ys = fl () and zs = fl () in
  let o1 = Array.make n 0.0 and o2 = Array.make n 0.0 in
  let two_prod () =
    for i = 0 to n - 1 do
      let p, e = Eft.two_prod xs.(i) ys.(i) in
      o1.(i) <- p;
      o2.(i) <- e
    done
  in
  let two_sum () =
    for i = 0 to n - 1 do
      let s, e = Eft.two_sum xs.(i) ys.(i) in
      o1.(i) <- s;
      o2.(i) <- e
    done
  in
  let muladd () =
    for i = 0 to n - 1 do
      o1.(i) <- (xs.(i) *. ys.(i)) +. zs.(i)
    done
  in
  let m2 () = Array.init n (fun _ -> Mf2.of_components (Gen.expansion st 2)) in
  let m4 () = Array.init n (fun _ -> Mf4.of_components (Gen.expansion st 4)) in
  let a2 = m2 () and b2 = m2 () and a4 = m4 () and b4 = m4 () in
  let r2 = Array.make n Mf2.zero and r4 = Array.make n Mf4.zero in
  let mf2_mul () = for i = 0 to n - 1 do r2.(i) <- Mf2.mul a2.(i) b2.(i) done in
  let mf4_mul () = for i = 0 to n - 1 do r4.(i) <- Mf4.mul a4.(i) b4.(i) done in
  let mf4_div () = for i = 0 to n - 1 do r4.(i) <- Mf4.div a4.(i) b4.(i) done in
  let module B2 = Multifloat.Batch.Mf2v in
  let module B4 = Multifloat.Batch.Mf4v in
  let v2x = B2.of_array a2 and v2y = B2.of_array b2 in
  let v4x = B4.of_array a4 and v4y = B4.of_array b4 in
  let madd2 () = B2.madd ~alpha:a2.(0) ~x:v2x ~xoff:0 ~y:v2y ~yoff:0 ~len:n in
  let madd4 () = B4.madd ~alpha:a4.(0) ~x:v4x ~xoff:0 ~y:v4y ~yoff:0 ~len:n in
  let dot2 () = ignore (B2.dot ~init:Mf2.zero ~x:v2x ~xoff:0 ~y:v2y ~yoff:0 ~len:n) in
  (* f64 through the same planar tiled path as the MultiFloat GEMMs *)
  let g = Dense.gemm2_n in
  let fa = Kd.vec_of_floats (Array.init (g * g) (fun _ -> Random.State.float st 2.0 -. 1.0)) in
  let fb = Kd.vec_of_floats (Array.init (g * g) (fun _ -> Random.State.float st 2.0 -. 1.0)) in
  let gemm_f64 () =
    let c = Kd.V.create (g * g) in
    let t0 = now () in
    Kd.gemm_rt sched ~m:g ~n:g ~k:g ~a:fa ~b:fb ~c ();
    now () -. t0
  in
  ignore (gemm_f64 ());
  let f64_ns = Sample.median (List.init samples (fun _ -> gemm_f64 ())) in
  (* the non-iterative part of a refinement solve: double LU, the
     initial solve and the first residual *)
  let lu () =
    let a, b, _ = Dense.system st Dense.solve_n in
    let t0 = now () in
    ignore (Dense.R4.solve ~rt:sched ~n:Dense.solve_n ~a ~b ~max_iter:0 ());
    now () -. t0
  in
  let lu_ns = Sample.median (List.init 3 (fun _ -> lu ())) in
  [ ("eft.two_prod_ns", ns_per_elt two_prod);
    ("eft.two_sum_ns", ns_per_elt two_sum);
    ("eft.native_muladd_ns", ns_per_elt muladd);
    ("multifloat.mf2_mul_ns", ns_per_elt mf2_mul);
    ("multifloat.mf4_mul_ns", ns_per_elt mf4_mul);
    ("multifloat.mf4_div_ns", ns_per_elt mf4_div);
    ("multifloat.batch.mf2_madd_ns_elt", ns_per_elt madd2);
    ("multifloat.batch.mf4_madd_ns_elt", ns_per_elt madd4);
    ("multifloat.batch.mf2_dot_ns_elt", ns_per_elt dot2);
    ("blas.gemm_f64_gops", float_of_int (Dense.cube g) /. f64_ns);
    ("linalg.lu_ms", lu_ns /. 1e6) ]
