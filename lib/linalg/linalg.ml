exception Singular of int

module Make (M : Multifloat.Ops.S) = struct
  type vec = M.t array
  type mat = M.t array

  let mat_of_floats = Array.map M.of_float
  let vec_of_floats = Array.map M.of_float
  let vec_to_floats = Array.map M.to_float

  let mat_mul ~n a b =
    let c = Array.make (n * n) M.zero in
    for i = 0 to n - 1 do
      for p = 0 to n - 1 do
        let aip = a.((i * n) + p) in
        for j = 0 to n - 1 do
          c.((i * n) + j) <- M.add c.((i * n) + j) (M.mul aip b.((p * n) + j))
        done
      done
    done;
    c

  let mat_vec ~n a x =
    Array.init n (fun i ->
        let acc = ref M.zero in
        for j = 0 to n - 1 do
          acc := M.add !acc (M.mul a.((i * n) + j) x.(j))
        done;
        !acc)

  let residual ~n ~a ~x ~b =
    let ax = mat_vec ~n a x in
    Array.init n (fun i -> M.sub b.(i) ax.(i))

  let norm_inf v = Array.fold_left (fun acc x -> M.max acc (M.abs x)) M.zero v
  let norm2 v = M.sqrt (Array.fold_left (fun acc x -> M.add acc (M.mul x x)) M.zero v)
  let frobenius = norm2

  type lu = {
    factors : mat;
    pivots : int array;
    det_sign : int;
  }

  let lu_factor ~n a =
    let m = Array.copy a in
    let piv = Array.init n (fun i -> i) in
    let sign = ref 1 in
    for k = 0 to n - 1 do
      (* partial pivot on |column k| *)
      let best = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (M.to_float m.((i * n) + k)) > Float.abs (M.to_float m.((!best * n) + k))
        then best := i
      done;
      if !best <> k then begin
        sign := - !sign;
        let t = piv.(k) in
        piv.(k) <- piv.(!best);
        piv.(!best) <- t;
        for j = 0 to n - 1 do
          let t = m.((k * n) + j) in
          m.((k * n) + j) <- m.((!best * n) + j);
          m.((!best * n) + j) <- t
        done
      end;
      let pivot = m.((k * n) + k) in
      if M.is_zero pivot then raise (Singular k);
      for i = k + 1 to n - 1 do
        let f = M.div m.((i * n) + k) pivot in
        m.((i * n) + k) <- f;
        for j = k + 1 to n - 1 do
          m.((i * n) + j) <- M.sub m.((i * n) + j) (M.mul f m.((k * n) + j))
        done
      done
    done;
    { factors = m; pivots = piv; det_sign = !sign }

  let lu_solve ~n { factors = m; pivots = piv; _ } b =
    (* forward substitution on the permuted right-hand side *)
    let y = Array.init n (fun i -> b.(piv.(i))) in
    for i = 1 to n - 1 do
      let acc = ref y.(i) in
      for j = 0 to i - 1 do
        acc := M.sub !acc (M.mul m.((i * n) + j) y.(j))
      done;
      y.(i) <- !acc
    done;
    (* back substitution *)
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := M.sub !acc (M.mul m.((i * n) + j) y.(j))
      done;
      y.(i) <- M.div !acc m.((i * n) + i)
    done;
    y

  let solve ~n a b = lu_solve ~n (lu_factor ~n a) b

  let det ~n a =
    match lu_factor ~n a with
    | { factors; det_sign; _ } ->
        let d = ref (if det_sign > 0 then M.one else M.neg M.one) in
        for i = 0 to n - 1 do
          d := M.mul !d factors.((i * n) + i)
        done;
        !d
    | exception Singular _ -> M.zero

  let cholesky ~n a =
    let l = Array.make (n * n) M.zero in
    for i = 0 to n - 1 do
      for j = 0 to i do
        let acc = ref a.((i * n) + j) in
        for k = 0 to j - 1 do
          acc := M.sub !acc (M.mul l.((i * n) + k) l.((j * n) + k))
        done;
        if i = j then begin
          if M.sign !acc <= 0 then raise (Singular i);
          l.((i * n) + i) <- M.sqrt !acc
        end
        else l.((i * n) + j) <- M.div !acc l.((j * n) + j)
      done
    done;
    l

  let cholesky_solve ~n a b =
    let l = cholesky ~n a in
    (* L y = b *)
    let y = Array.copy b in
    for i = 0 to n - 1 do
      let acc = ref y.(i) in
      for j = 0 to i - 1 do
        acc := M.sub !acc (M.mul l.((i * n) + j) y.(j))
      done;
      y.(i) <- M.div !acc l.((i * n) + i)
    done;
    (* L^T x = y *)
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := M.sub !acc (M.mul l.((j * n) + i) y.(j))
      done;
      y.(i) <- M.div !acc l.((i * n) + i)
    done;
    y

  let inverse ~n a =
    let lu = lu_factor ~n a in
    let inv = Array.make (n * n) M.zero in
    for col = 0 to n - 1 do
      let e = Array.init n (fun i -> if i = col then M.one else M.zero) in
      let x = lu_solve ~n lu e in
      for i = 0 to n - 1 do
        inv.((i * n) + col) <- x.(i)
      done
    done;
    inv
end

module Refine (M : Multifloat.Ops.S) = struct
  module L = Make (M)

  type stats = {
    iterations : int;
    final_residual_norm : float;
    converged : bool;
  }

  (* Double-precision LU, reused for every correction solve. *)
  let factor_double n a =
    let m = Array.copy a in
    let piv = Array.init n (fun i -> i) in
    for k = 0 to n - 1 do
      let best = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs m.((i * n) + k) > Float.abs m.((!best * n) + k) then best := i
      done;
      if !best <> k then begin
        let t = piv.(k) in
        piv.(k) <- piv.(!best);
        piv.(!best) <- t;
        for j = 0 to n - 1 do
          let t = m.((k * n) + j) in
          m.((k * n) + j) <- m.((!best * n) + j);
          m.((!best * n) + j) <- t
        done
      end;
      if m.((k * n) + k) = 0.0 then raise (Singular k);
      for i = k + 1 to n - 1 do
        let f = m.((i * n) + k) /. m.((k * n) + k) in
        m.((i * n) + k) <- f;
        for j = k + 1 to n - 1 do
          m.((i * n) + j) <- m.((i * n) + j) -. (f *. m.((k * n) + j))
        done
      done
    done;
    (m, piv)

  let solve_double n (m, piv) b =
    let y = Array.init n (fun i -> b.(piv.(i))) in
    for i = 1 to n - 1 do
      for j = 0 to i - 1 do
        y.(i) <- y.(i) -. (m.((i * n) + j) *. y.(j))
      done
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        y.(i) <- y.(i) -. (m.((i * n) + j) *. y.(j))
      done;
      y.(i) <- y.(i) /. m.((i * n) + i)
    done;
    y

  let solve ~n ~a ~b ?(max_iter = 50) () =
    let lu = factor_double n a in
    let am = Array.map M.of_float a in
    (* initial solve in double *)
    let x = ref (Array.map M.of_float (solve_double n lu (Array.map M.to_float b))) in
    let resid_norm x =
      let r = L.residual ~n ~a:am ~x ~b in
      (r, M.to_float (L.norm_inf r))
    in
    let r, rn = resid_norm !x in
    let r = ref r and best = ref rn in
    let iters = ref 0 in
    let stalled = ref false in
    (* Converged once the residual is at the level of the working
       precision relative to the solution. *)
    let target () =
      let xn = M.to_float (L.norm_inf !x) in
      Float.max xn 1e-300 *. Float.ldexp 1.0 (-(M.precision_bits + 2))
    in
    while (not !stalled) && !iters < max_iter && !best > target () do
      incr iters;
      (* correction solve in double on the extended residual's leading
         part, applied in extended precision to a candidate; [x] stays
         the best iterate, the one whose residual is [best] *)
      let d = solve_double n lu (Array.map M.to_float !r) in
      let x' = Array.mapi (fun i xi -> M.add_float xi d.(i)) !x in
      let r', rn' = resid_norm x' in
      if rn' < !best then begin
        best := rn';
        r := r';
        x := x'
      end
      else stalled := true
    done;
    let xnorm = M.to_float (L.norm_inf !x) in
    let converged =
      !best = 0.0 || (xnorm > 0.0 && !best /. xnorm < Float.ldexp 1.0 (-(M.precision_bits - 15)))
    in
    (!x, { iterations = !iters; final_residual_norm = !best; converged })
end

(* Same refinement scheme, but the extended-precision matrix,
   solution, right-hand side and residual all live in planar
   (structure-of-arrays) vectors.  The residual is the GEMV leaf
   [V.dot_rows] (several rows folded side by side in vector lanes, each
   in its own index order) followed by [V.sub] from b, with no boxed
   intermediates.  Each row's gate sequence is the scalar residual's,
   so the returned solution and stats are bitwise identical to
   [Refine] — only the layout and the allocation profile change. *)
module Refine_batched
    (M : Multifloat.Ops.S)
    (V : Multifloat.Batch.V with type elt = M.t) =
struct
  module R = Refine (M)

  type stats = R.stats = {
    iterations : int;
    final_residual_norm : float;
    converged : bool;
  }

  module E = Runtime.Engine.Make (M) (V)

  (* Same fold order as [Make.norm_inf], directly over the planes. *)
  let norm_inf_v v =
    let acc = ref M.zero in
    for i = 0 to V.length v - 1 do
      acc := M.max !acc (M.abs (V.get v i))
    done;
    M.to_float !acc

  let solve ?rt ~n ~a ~b ?(max_iter = 50) () =
    let tr = Obs.Trace.enabled () in
    if tr then Obs.Trace.begin_span Obs.Trace.Eft "refine.solve";
    let lu = R.factor_double n a in
    (* [of_floats] lifts each double straight into the planes, as
       [M.of_float] would, without boxing an element per entry *)
    let am = V.of_floats a in
    let bv = V.of_array b in
    (* Solution buffers likewise: a correction goes into [xtry], which
       becomes [xbest] only if its residual is smaller, so a stall
       returns the iterate [best] belongs to. *)
    let xbest = ref (V.of_floats (R.solve_double n lu (Array.map M.to_float b)))
    and xtry = ref (V.create n) in
    (* Two residual buffers: the best-so-far residual feeds the next
       correction solve, so a candidate must not clobber it.  With a
       scheduler the GEMV runs row-parallel on the runtime engine, over
       the same [dot_rows] rows, so the refinement trajectory stays
       bitwise identical to the sequential path at any worker count. *)
    let rbest = ref (V.create n) and rtry = ref (V.create n) in
    let resid_norm xv dst =
      (match rt with
      | Some rt -> E.gemv rt ~m:n ~n ~a:am ~x:xv ~y:dst ()
      | None -> V.dot_rows ~a:am ~aoff:0 ~ld:n ~x:xv ~xoff:0 ~len:n ~dst ~lo:0 ~hi:n);
      V.sub ~dst bv dst;
      norm_inf_v dst
    in
    let best = ref (resid_norm !xbest !rbest) in
    let iters = ref 0 in
    let stalled = ref false in
    let target () =
      let xn = norm_inf_v !xbest in
      Float.max xn 1e-300 *. Float.ldexp 1.0 (-(M.precision_bits + 2))
    in
    while (not !stalled) && !iters < max_iter && !best > target () do
      incr iters;
      if tr then Obs.Trace.begin_span Obs.Trace.Eft "refine.iter";
      let d = R.solve_double n lu (V.to_floats !rbest) in
      let xb = !xbest and xt = !xtry in
      Array.iteri (fun i di -> V.set xt i (M.add_float (V.get xb i) di)) d;
      let rn' = resid_norm xt !rtry in
      if rn' < !best then begin
        best := rn';
        let t = !rbest in
        rbest := !rtry;
        rtry := t;
        xbest := xt;
        xtry := xb
      end
      else stalled := true;
      (* each iteration span carries the residual norm it achieved *)
      if tr then Obs.Trace.end_span_f ~arg_name:"residual" ~arg:rn'
    done;
    let x = V.to_array !xbest in
    let xnorm = norm_inf_v !xbest in
    let converged =
      !best = 0.0 || (xnorm > 0.0 && !best /. xnorm < Float.ldexp 1.0 (-(M.precision_bits - 15)))
    in
    if tr then Obs.Trace.end_span_f ~arg_name:"residual" ~arg:!best;
    (x, { iterations = !iters; final_residual_norm = !best; converged })
end
