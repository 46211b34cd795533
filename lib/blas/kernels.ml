module Make (N : Numeric.S) = struct
  let axpy ~alpha ~x ~y =
    let n = Array.length x in
    assert (Array.length y = n);
    for i = 0 to n - 1 do
      y.(i) <- N.add (N.mul alpha x.(i)) y.(i)
    done

  let dot ~x ~y =
    let n = Array.length x in
    assert (Array.length y = n);
    let acc = ref N.zero in
    for i = 0 to n - 1 do
      acc := N.add !acc (N.mul x.(i) y.(i))
    done;
    !acc

  let gemv ~m ~n ~a ~x ~y =
    assert (Array.length a = m * n && Array.length x = n && Array.length y = m);
    for i = 0 to m - 1 do
      let acc = ref N.zero in
      let row = i * n in
      for j = 0 to n - 1 do
        acc := N.add !acc (N.mul a.(row + j) x.(j))
      done;
      y.(i) <- !acc
    done

  let gemm ~m ~n ~k ~a ~b ~c =
    assert (Array.length a = m * k && Array.length b = k * n && Array.length c = m * n);
    for i = 0 to m - 1 do
      let crow = i * n in
      for p = 0 to k - 1 do
        let aip = a.((i * k) + p) in
        let brow = p * n in
        for j = 0 to n - 1 do
          c.(crow + j) <- N.add c.(crow + j) (N.mul aip b.(brow + j))
        done
      done
    done

  let vec_of_floats fs = Array.map N.of_float fs
  let vec_to_floats vs = Array.map N.to_float vs
end

(* Batched kernels over a planar (structure-of-arrays) vector type.
   Same kernels, same op-count convention, same accumulation orders as
   [Make] — the per-element arithmetic is identical, so sequential
   results are bitwise equal to the scalar path. *)
module Make_batched (N : Numeric.BATCHED) = struct
  module V = N.V

  let axpy ~alpha ~x ~y =
    let n = V.length x in
    assert (V.length y = n);
    V.axpy ~lo:0 ~hi:n ~alpha ~x ~y

  let dot ~x ~y =
    let n = V.length x in
    assert (V.length y = n);
    V.dot ~init:N.zero ~x ~xoff:0 ~y ~yoff:0 ~len:n

  let gemv ~m ~n ~a ~x ~y =
    assert (V.length a = m * n && V.length x = n && V.length y = m);
    V.dot_rows ~a ~aoff:0 ~ld:n ~x ~xoff:0 ~len:n ~dst:y ~lo:0 ~hi:m

  let gemm ~m ~n ~k ~a ~b ~c =
    assert (V.length a = m * k && V.length b = k * n && V.length c = m * n);
    for i = 0 to m - 1 do
      for p = 0 to k - 1 do
        let aip = V.get a ((i * k) + p) in
        V.madd ~alpha:aip ~x:b ~xoff:(p * n) ~y:c ~yoff:(i * n) ~len:n
      done
    done

  (* Runtime variants: the work-stealing scheduler + tiled engine
     (lib/runtime).  GEMV/GEMM/AXPY are bitwise equal to the
     sequential kernels above at any worker count and tile size; DOT
     uses the engine's fixed-shape reduction tree (deterministic
     across worker counts, grouped differently from the sequential
     fold).  This is the only parallel path. *)

  module Rt = Runtime.Engine.Make (N) (V)

  let cfg_of ?tile () =
    match tile with
    | None -> Runtime.Engine.default_cfg
    | Some (tm, tn) -> { Runtime.Engine.default_cfg with tile_m = tm; tile_n = tn }

  (* Entry spans cover the whole scheduled call (task-tree setup
     included), with the total extended-precision operation count as
     the argument; the engine adds per-tile spans beneath gemm's. *)
  let traced name fl f =
    let tr = Obs.Trace.enabled () in
    if tr then Obs.Trace.begin_span Obs.Trace.Kernel name;
    let finish () =
      if tr then Obs.Trace.end_span_f ~arg_name:"flops" ~arg:(float_of_int fl)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e

  let axpy_rt rt ~alpha ~x ~y =
    assert (V.length y = V.length x);
    traced "kernels.axpy_rt" (V.length x) (fun () -> Rt.axpy rt ~alpha ~x ~y ())

  let dot_rt rt ~x ~y =
    assert (V.length y = V.length x);
    traced "kernels.dot_rt" (V.length x) (fun () -> Rt.dot rt x y)

  let gemv_rt rt ~m ~n ~a ~x ~y =
    assert (V.length a = m * n && V.length x = n && V.length y = m);
    traced "kernels.gemv_rt" (m * n) (fun () -> Rt.gemv rt ~m ~n ~a ~x ~y ())

  let gemm_rt rt ?tile ~m ~n ~k ~a ~b ~c () =
    assert (V.length a = m * k && V.length b = k * n && V.length c = m * n);
    traced "kernels.gemm_rt" (m * n * k) (fun () ->
        Rt.gemm rt ~cfg:(cfg_of ?tile ()) ~m ~n ~k ~a ~b ~c ())

  let vec_of_floats = V.of_floats
  let vec_to_floats = V.to_floats
end
