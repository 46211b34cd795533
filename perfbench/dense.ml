(* The dense workload: one round is five planar kernels on the 2-worker
   scheduler plus one mixed-precision refinement solve, each on fresh
   seeded operands. *)

module Mf2 = Multifloat.Mf2
module Mf4 = Multifloat.Mf4
module Sched = Runtime.Sched
module K2 = Blas.Kernels.Make_batched (Blas.Instances.Mf2)
module K3 = Blas.Kernels.Make_batched (Blas.Instances.Mf3)
module K4 = Blas.Kernels.Make_batched (Blas.Instances.Mf4)
module R4 = Linalg.Refine_batched (Mf4) (Multifloat.Batch.Mf4v)
module G2 = Gen.Planar (K2.V) (Mf2)
module G3 = Gen.Planar (K3.V) (Multifloat.Mf3)
module G4 = Gen.Planar (K4.V) (Mf4)

let gemm2_n = 256
let gemm4_n = 128
let gemv3_n = 1024
let dot2_n = 65536
let axpy4_n = 65536
let solve_n = 256

let cube n = n * n * n

(* One op = one multiply plus one add, the BLAS convention. *)
let kernel_ops = cube gemm2_n + cube gemm4_n + (gemv3_n * gemv3_n) + dot2_n + axpy4_n

(* Operand and output buffers, allocated once and refilled in place
   every round: the harness's own inputs then die young and never grow
   the major heap under the timed calls. *)
type bufs = {
  a2 : K2.V.t; b2 : K2.V.t; c2 : K2.V.t;
  a4 : K4.V.t; b4 : K4.V.t; c4 : K4.V.t;
  m3 : K3.V.t; x3 : K3.V.t; yv : K3.V.t;
  dx : K2.V.t; dy : K2.V.t;
  mutable alpha : Mf4.t; ax : K4.V.t; ay : K4.V.t;
  ay0 : K4.V.t;  (** [ay] before the in-place AXPY, for the check *)
  sa : float array; sb : Mf4.t array; xtrue : Mf4.t array;
  chk2 : K2.V.t; chk4 : K4.V.t; chk3 : K3.V.t;  (** sequential reference outputs *)
}

let alloc () =
  let g2 = gemm2_n * gemm2_n and g4 = gemm4_n * gemm4_n in
  { a2 = K2.V.create g2; b2 = K2.V.create g2; c2 = K2.V.create g2;
    a4 = K4.V.create g4; b4 = K4.V.create g4; c4 = K4.V.create g4;
    m3 = K3.V.create (gemv3_n * gemv3_n); x3 = K3.V.create gemv3_n; yv = K3.V.create gemv3_n;
    dx = K2.V.create dot2_n; dy = K2.V.create dot2_n;
    alpha = Mf4.zero; ax = K4.V.create axpy4_n; ay = K4.V.create axpy4_n;
    ay0 = K4.V.create axpy4_n;
    sa = Array.make (solve_n * solve_n) 0.0; sb = Array.make solve_n Mf4.zero;
    xtrue = Array.make solve_n Mf4.zero;
    chk2 = K2.V.create g2; chk4 = K4.V.create g4; chk3 = K3.V.create gemv3_n }

(* A diagonally dominant system with a known extended-precision
   solution: b = A x_true evaluated in Mf4. *)
let fill_system st ~n a b xtrue =
  for k = 0 to (n * n) - 1 do
    a.(k) <- Random.State.float st 2.0 -. 1.0
  done;
  for i = 0 to n - 1 do
    let s = ref 1.0 in
    for j = 0 to n - 1 do
      if j <> i then s := !s +. Float.abs a.((i * n) + j)
    done;
    a.((i * n) + i) <- !s
  done;
  for j = 0 to n - 1 do
    xtrue.(j) <- Mf4.of_components (Gen.expansion st 4)
  done;
  for i = 0 to n - 1 do
    let acc = ref Mf4.zero in
    for j = 0 to n - 1 do
      acc := Mf4.add !acc (Mf4.mul_float xtrue.(j) a.((i * n) + j))
    done;
    b.(i) <- !acc
  done

let system st n =
  let a = Array.make (n * n) 0.0 and b = Array.make n Mf4.zero and x = Array.make n Mf4.zero in
  fill_system st ~n a b x;
  (a, b, x)

(* Fresh operands for round [k] of [stream]; outputs zeroed. *)
let fill b ~seed ~stream k =
  let st = Gen.state ~seed ~stream k in
  List.iter (G2.fill st) [ b.a2; b.b2; b.dx; b.dy ];
  List.iter (G4.fill st) [ b.a4; b.b4; b.ax; b.ay ];
  List.iter (G3.fill st) [ b.m3; b.x3 ];
  b.alpha <- Mf4.of_components (Gen.expansion st 4);
  G4.blit ~src:b.ay ~dst:b.ay0;
  fill_system st ~n:solve_n b.sa b.sb b.xtrue;
  G2.zero b.c2;
  G4.zero b.c4

(* Per-call wall times of one round, in ns. *)
type round = {
  gemm2 : float; gemm4 : float; gemv3 : float; dot2 : float; axpy4 : float;
  solve : float;
  wall : float;  (** first call to end of the solve *)
  iters : int;
  words : float;  (** minor words allocated by the calling domain *)
  failures : string list;
}

let kernels r = r.gemm2 +. r.gemm4 +. r.gemv3 +. r.dot2 +. r.axpy4

let now = Obs.Clock.now_ns

(* What a round's calls return besides the buffers they write. *)
type outputs = { dot : Mf2.t; x : Mf4.t array }

(* Run one round's library calls.  With [spans], each call is a child
   of a "round" span. *)
let run ?spans sched (b : bufs) =
  let root = Option.map (fun sp -> Spans.openl sp "round" (now ())) spans in
  let timed name f =
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    (match (spans, root) with
    | Some sp, Some p -> ignore (Spans.add sp ~parent:p name t0 t1)
    | _ -> ());
    (v, t1 -. t0)
  in
  let w0 = Gc.minor_words () in
  let t_start = now () in
  let (), gemm2 =
    timed "blas.gemm_mf2" (fun () ->
        K2.gemm_rt sched ~m:gemm2_n ~n:gemm2_n ~k:gemm2_n ~a:b.a2 ~b:b.b2 ~c:b.c2 ())
  in
  let (), gemm4 =
    timed "blas.gemm_mf4" (fun () ->
        K4.gemm_rt sched ~m:gemm4_n ~n:gemm4_n ~k:gemm4_n ~a:b.a4 ~b:b.b4 ~c:b.c4 ())
  in
  let (), gemv3 =
    timed "blas.gemv_mf3" (fun () ->
        K3.gemv_rt sched ~m:gemv3_n ~n:gemv3_n ~a:b.m3 ~x:b.x3 ~y:b.yv)
  in
  let dot, dot2 = timed "blas.dot_mf2" (fun () -> K2.dot_rt sched ~x:b.dx ~y:b.dy) in
  let (), axpy4 =
    timed "blas.axpy_mf4" (fun () -> K4.axpy_rt sched ~alpha:b.alpha ~x:b.ax ~y:b.ay)
  in
  let w1 = Gc.minor_words () in
  let (x, st), solve =
    timed "linalg.solve" (fun () -> R4.solve ~rt:sched ~n:solve_n ~a:b.sa ~b:b.sb ())
  in
  let t_end = now () in
  (match (spans, root) with Some sp, Some p -> Spans.close sp p t_end | _ -> ());
  ( { gemm2; gemm4; gemv3; dot2; axpy4; solve; wall = t_end -. t_start;
      iters = st.R4.iterations; words = w1 -. w0; failures = [] },
    { dot; x } )

(* Rows of each GEMM checked bitwise per round; [~full] checks all. *)
let sampled_rows = 4

(* Correctness gates for one round.  [sched1] is a 1-worker scheduler:
   the runtime's reductions are bitwise identical at any worker count.
   Returns the failed checks and, with [~full], the sequential mf2
   GEMM time (the baseline of [runtime.speedup_2w]). *)
let check ~sched1 ~full ~seed ~k (b : bufs) (o : outputs) =
  let fails = ref [] in
  let need name ok = if not ok then fails := name :: !fails in
  let seq_ns = ref nan in
  if full then begin
    G2.zero b.chk2;
    let t0 = now () in
    K2.gemm ~m:gemm2_n ~n:gemm2_n ~k:gemm2_n ~a:b.a2 ~b:b.b2 ~c:b.chk2;
    seq_ns := now () -. t0;
    need "gemm_mf2 = sequential gemm" (G2.bits_equal b.chk2 b.c2);
    G4.zero b.chk4;
    K4.gemm ~m:gemm4_n ~n:gemm4_n ~k:gemm4_n ~a:b.a4 ~b:b.b4 ~c:b.chk4;
    need "gemm_mf4 = sequential gemm" (G4.bits_equal b.chk4 b.c4)
  end
  else begin
    let st = Gen.state ~seed ~stream:7 k in
    for _ = 1 to sampled_rows do
      let r2 = Random.State.int st gemm2_n and r4 = Random.State.int st gemm4_n in
      need "gemm_mf2 row = sequential gemm"
        (G2.gemm_row_equal ~n:gemm2_n ~a:b.a2 ~b:b.b2 ~c:b.c2 ~row:b.chk2 r2);
      need "gemm_mf4 row = sequential gemm"
        (G4.gemm_row_equal ~n:gemm4_n ~a:b.a4 ~b:b.b4 ~c:b.c4 ~row:b.chk4 r4)
    done
  end;
  K3.gemv ~m:gemv3_n ~n:gemv3_n ~a:b.m3 ~x:b.x3 ~y:b.chk3;
  need "gemv_mf3 = sequential gemv" (G3.bits_equal b.chk3 b.yv);
  K4.axpy ~alpha:b.alpha ~x:b.ax ~y:b.ay0;
  need "axpy_mf4 = sequential axpy" (G4.bits_equal b.ay0 b.ay);
  need "dot_mf2 = 1-worker dot" (G2.bits_equal_elt o.dot (K2.dot_rt sched1 ~x:b.dx ~y:b.dy));
  (* the fixed reduction tree groups differently from the sequential
     fold; both are within n * 2^-100 of the exact dot, relative to
     sum |x y| *)
  let seq = K2.dot ~x:b.dx ~y:b.dy in
  let mag = ref 0.0 in
  for j = 0 to dot2_n - 1 do
    mag := !mag +. Float.abs (Mf2.to_float (K2.V.get b.dx j) *. Mf2.to_float (K2.V.get b.dy j))
  done;
  need "dot_mf2 accuracy"
    (Float.abs (Mf2.to_float (Mf2.sub o.dot seq))
    <= float_of_int dot2_n *. Float.ldexp !mag (-100));
  (* the solve must carry 200 or more correct bits *)
  let err = ref 0.0 and scale = ref 0.0 in
  Array.iteri
    (fun j xt ->
      err := Float.max !err (Float.abs (Mf4.to_float (Mf4.sub o.x.(j) xt)));
      scale := Float.max !scale (Float.abs (Mf4.to_float xt)))
    b.xtrue;
  need "solve error <= 2^-200" (!err <= Float.ldexp !scale (-200));
  (List.rev !fails, !seq_ns)

(* A window of rounds: refill, run, check, until [seconds] of wall
   time have passed.  The last round is checked in full. *)
let window ?spans ~sched ~sched1 ~bufs ~seed ~stream ~seconds () =
  let t_end = now () +. (seconds *. 1e9) in
  let rec loop k acc =
    let t0 = now () in
    fill bufs ~seed ~stream k;
    (match spans with Some sp -> ignore (Spans.add sp "bench.gen" t0 (now ())) | None -> ());
    let r, o = run ?spans sched bufs in
    let last = now () >= t_end in
    let fails, seq_ns = check ~sched1 ~full:last ~seed ~k bufs o in
    let acc = { r with failures = fails } :: acc in
    if last then (List.rev acc, seq_ns) else loop (k + 1) acc
  in
  loop 0 []
