(* Cache-blocked dense engine over planar vectors, scheduled on
   {!Sched}.

   GEMM decomposes C into [tile_m x tile_n] tiles over i/j ONLY --
   never over k -- and each tile task runs the ikj rank-1 update
   ([V.madd] of a B-row segment scaled by one A element) restricted to
   its j-range, folding p in index order.  That is exactly the
   accumulation order of the sequential ikj/madd kernel, so tiled
   results are bitwise identical to the sequential batched kernel at
   any tile size and any worker count.  (A dot-product micro-kernel
   over packed B^T panels was tried first: it loses ~40% to the madd
   form because the dot accumulator is a serial dependency chain,
   while madd's per-element updates are independent and pipeline.)
   The tile bounds the working set: a k x tile_n panel of B plus a
   tile_m x tile_n piece of C stay cache-resident while A streams.

   DOT uses the scheduler's fixed-shape reduction tree; its
   grouping differs from a plain sequential fold (floating-point
   addition is not associative) but depends only on the length and the
   grain, so it too is reproducible across worker counts.

   Per-tile extended-precision operation counts are credited to the
   executing worker via [Sched.add_flops] (one "flop" = one fused
   multiply-accumulate in the working precision). *)

module type ELT = sig
  type t

  val zero : t
  val add : t -> t -> t
end

module type VEC = sig
  type elt
  type t

  val lanes : int
  val length : t -> int
  val get : t -> int -> elt
  val axpy : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  val madd : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  val dot : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt

  val dot_rows :
    a:t -> aoff:int -> ld:int -> x:t -> xoff:int -> len:int -> dst:t -> lo:int -> hi:int -> unit
end

type cfg = { tile_m : int; tile_n : int; grain : int }

let default_cfg = { tile_m = 64; tile_n = 64; grain = 1024 }

module Make (E : ELT) (V : VEC with type elt = E.t) = struct
  let check_len name v n = if V.length v <> n then invalid_arg name

  let dot rt ?(cfg = default_cfg) x y =
    let n = V.length x in
    check_len "Engine.dot" y n;
    Sched.parallel_reduce rt ~grain:(max 1 cfg.grain) ~lo:0 ~hi:n
      ~leaf:(fun lo hi ->
        Sched.add_flops rt (hi - lo);
        V.dot ~init:E.zero ~x ~xoff:lo ~y ~yoff:lo ~len:(hi - lo))
      E.add

  let axpy rt ?(cfg = default_cfg) ~alpha ~x ~y () =
    let n = V.length x in
    check_len "Engine.axpy" y n;
    Sched.parallel_for rt ~grain:(max 1 cfg.grain) ~lo:0 ~hi:n (fun lo hi ->
        Sched.add_flops rt (hi - lo);
        V.axpy ~lo ~hi ~alpha ~x ~y)

  (* The GEMV leaves: whole groups of [V.lanes] rows, each leaf about
     [grain] multiply-accumulates, folded by one [V.dot_rows] call. *)
  let row_groups rt cfg ~m ~n leaf =
    let w = max 1 V.lanes in
    let groups = (m + w - 1) / w in
    let grain = max 1 (cfg.grain / max 1 (n * w)) in
    Sched.parallel_for rt ~grain ~lo:0 ~hi:groups (fun g0 g1 -> leaf (g0 * w) (min m (g1 * w)))

  let gemv rt ?(cfg = default_cfg) ~m ~n ~a ~x ~y () =
    check_len "Engine.gemv: a" a (m * n);
    check_len "Engine.gemv: x" x n;
    check_len "Engine.gemv: y" y m;
    row_groups rt cfg ~m ~n (fun lo hi ->
        Sched.add_flops rt ((hi - lo) * n);
        V.dot_rows ~a ~aoff:0 ~ld:n ~x ~xoff:0 ~len:n ~dst:y ~lo ~hi)

  (* C <- C + A B with A m*k, B k*n, C m*n (all row-major planar). *)
  let gemm rt ?(cfg = default_cfg) ~m ~n ~k ~a ~b ~c () =
    check_len "Engine.gemm: a" a (m * k);
    check_len "Engine.gemm: b" b (k * n);
    check_len "Engine.gemm: c" c (m * n);
    if m = 0 || n = 0 || k = 0 then ()
    else begin
      let tm = max 1 cfg.tile_m and tn = max 1 cfg.tile_n in
      let nti = (m + tm - 1) / tm and ntj = (n + tn - 1) / tn in
      (* the 2-D tile grid, flattened: each tile is one stealable task *)
      Sched.parallel_for rt ~grain:1 ~lo:0 ~hi:(nti * ntj) (fun lo hi ->
          for tile = lo to hi - 1 do
            let ti = tile / ntj and tj = tile mod ntj in
            let i0 = ti * tm and j0 = tj * tn in
            let i1 = min m (i0 + tm) and j1 = min n (j0 + tn) in
            let fl = (i1 - i0) * (j1 - j0) * k in
            let tr = Obs.Trace.enabled () in
            if tr then Obs.Trace.begin_span Obs.Trace.Kernel "gemm.tile";
            Sched.add_flops rt fl;
            let len = j1 - j0 in
            for i = i0 to i1 - 1 do
              let arow = i * k and crow = (i * n) + j0 in
              for p = 0 to k - 1 do
                V.madd ~alpha:(V.get a (arow + p)) ~x:b ~xoff:((p * n) + j0) ~y:c ~yoff:crow ~len
              done
            done;
            if tr then Obs.Trace.end_span_f ~arg_name:"flops" ~arg:(float_of_int fl)
          done)
    end
end
