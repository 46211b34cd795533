(* Tests for the dense extended-precision linear algebra package. *)

let rng = Random.State.make [| 0x11a; 22 |]

module L4 = Linalg.Make (Multifloat.Mf4)
module L2 = Linalg.Make (Multifloat.Mf2)
module M4 = Multifloat.Mf4
module M2 = Multifloat.Mf2

let random_mat n = Array.init (n * n) (fun _ -> Random.State.float rng 4.0 -. 2.0)
let random_vec n = Array.init n (fun _ -> Random.State.float rng 4.0 -. 2.0)

let residual_small (type a) (module M : Multifloat.Ops.S with type t = a) ~bits r x =
  let module L = Linalg.Make (M) in
  let rn = M.to_float (L.norm_inf r) in
  let xn = M.to_float (L.norm_inf x) in
  rn = 0.0 || rn <= Float.max 1.0 xn *. Float.ldexp 1.0 (-bits)

let test_solve_random () =
  for _ = 1 to 20 do
    let n = 2 + Random.State.int rng 10 in
    let af = random_mat n and bf = random_vec n in
    let a = L4.mat_of_floats af and b = L4.vec_of_floats bf in
    match L4.solve ~n a b with
    | x ->
        let r = L4.residual ~n ~a ~x ~b in
        if not (residual_small (module M4) ~bits:190 r x) then
          Alcotest.failf "solve residual too large (n=%d)" n
    | exception Linalg.Singular _ -> () (* random singular matrix: fine *)
  done

let test_solve_identity () =
  let n = 5 in
  let a = Array.init (n * n) (fun k -> if k / n = k mod n then M4.one else M4.zero) in
  let b = L4.vec_of_floats (random_vec n) in
  let x = L4.solve ~n a b in
  Array.iteri (fun i xi -> if not (M4.equal xi b.(i)) then Alcotest.fail "identity solve") x

let test_singular_detected () =
  let n = 3 in
  (* Rank-deficient: two equal rows. *)
  let a = L4.mat_of_floats [| 1.; 2.; 3.; 1.; 2.; 3.; 4.; 5.; 6. |] in
  (match L4.lu_factor ~n a with
  | _ -> Alcotest.fail "expected Singular"
  | exception Linalg.Singular _ -> ());
  Alcotest.(check bool) "det = 0" true (M4.is_zero (L4.det ~n a))

let test_det () =
  let n = 2 in
  let a = L4.mat_of_floats [| 3.; 1.; 4.; 2. |] in
  Alcotest.(check bool) "2x2 det" true (M4.equal (L4.det ~n a) (M4.of_int 2));
  (* det of a permutation matrix is +-1 *)
  let p = L4.mat_of_floats [| 0.; 1.; 0.; 0.; 0.; 1.; 1.; 0.; 0. |] in
  Alcotest.(check bool) "perm det" true (M4.equal (L4.det ~n:3 p) M4.one)

let test_inverse () =
  for _ = 1 to 10 do
    let n = 2 + Random.State.int rng 6 in
    let af = random_mat n in
    let a = L4.mat_of_floats af in
    match L4.inverse ~n a with
    | inv ->
        let prod = L4.mat_mul ~n a inv in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let expect = if i = j then 1.0 else 0.0 in
            let got = M4.to_float prod.((i * n) + j) in
            if Float.abs (got -. expect) > 1e-40 then Alcotest.failf "A inv(A) at %d %d: %h" i j got
          done
        done
    | exception Linalg.Singular _ -> ()
  done

let test_cholesky () =
  for _ = 1 to 10 do
    let n = 2 + Random.State.int rng 6 in
    (* SPD matrix: B^T B + n I. *)
    let bf = random_mat n in
    let a =
      Array.init (n * n) (fun k ->
          let i = k / n and j = k mod n in
          let acc = ref (if i = j then Float.of_int n else 0.0) in
          for p = 0 to n - 1 do
            acc := !acc +. (bf.((p * n) + i) *. bf.((p * n) + j))
          done;
          M4.of_float !acc)
    in
    let l = L4.cholesky ~n a in
    (* L L^T = A to working precision. *)
    let lt = Array.init (n * n) (fun k -> l.(((k mod n) * n) + (k / n))) in
    let prod = L4.mat_mul ~n l lt in
    for k = 0 to (n * n) - 1 do
      let d = M4.to_float (M4.sub prod.(k) a.(k)) in
      if Float.abs d > 1e-50 then Alcotest.failf "cholesky LL^T at %d: %h" k d
    done;
    (* and the solve agrees with LU. *)
    let b = L4.vec_of_floats (random_vec n) in
    let x1 = L4.cholesky_solve ~n a b in
    let x2 = L4.solve ~n a b in
    for i = 0 to n - 1 do
      let d = M4.to_float (M4.sub x1.(i) x2.(i)) in
      if Float.abs d > 1e-45 then Alcotest.fail "cholesky vs LU solve"
    done
  done

let test_cholesky_not_spd () =
  let a = L4.mat_of_floats [| 1.; 2.; 2.; 1. |] in
  match L4.cholesky ~n:2 a with
  | _ -> Alcotest.fail "expected Singular for indefinite matrix"
  | exception Linalg.Singular _ -> ()

let test_norms () =
  let v = L4.vec_of_floats [| 3.0; -4.0 |] in
  Alcotest.(check bool) "norm2 3-4" true (M4.equal (L4.norm2 v) (M4.of_int 5));
  Alcotest.(check bool) "norm_inf" true (M4.equal (L4.norm_inf v) (M4.of_int 4))

(* Mixed-precision iterative refinement. *)
module R4 = Linalg.Refine (Multifloat.Mf4)
module R2 = Linalg.Refine (Multifloat.Mf2)

let hilbert n = Array.init (n * n) (fun k -> 1.0 /. Float.of_int ((k / n) + (k mod n) + 1))

let test_refinement_hilbert () =
  (* Hilbert n=8 (cond ~1e10): double LU alone gives ~6 digits; the
     refined solution must be accurate to Mf4's working precision. *)
  let n = 8 in
  let a = hilbert n in
  let am = L4.mat_of_floats a in
  let x_true = Array.init n (fun i -> M4.of_int (i + 1)) in
  let b = L4.mat_vec ~n am x_true in
  let x, stats = R4.solve ~n ~a ~b () in
  Alcotest.(check bool) "converged" true stats.R4.converged;
  Alcotest.(check bool) "a few iterations" true (stats.R4.iterations >= 2 && stats.R4.iterations <= 35);
  for i = 0 to n - 1 do
    let d = Float.abs (M4.to_float (M4.sub x.(i) x_true.(i))) in
    (* b was computed in Mf4 from x_true, so refinement should recover
       x_true almost exactly. *)
    if d > 1e-45 then Alcotest.failf "refined x_%d off by %h (%d iters)" i d stats.R4.iterations
  done

let test_refinement_beats_double () =
  let n = 10 in
  let a = hilbert n in
  let am = L2.mat_of_floats a in
  let x_true = Array.init n (fun _ -> M2.one) in
  let b = L2.mat_vec ~n am x_true in
  let x, _ = R2.solve ~n ~a ~b () in
  let err =
    Array.fold_left
      (fun acc xi -> Float.max acc (Float.abs (M2.to_float (M2.sub xi M2.one))))
      0.0 x
  in
  (* double-only LU on Hilbert-10 has error ~1e-4; at 107 bits the
     attainable accuracy is ~cond * 2^-107 ~ 1e-19. *)
  Alcotest.(check bool) (Printf.sprintf "refined error %h" err) true (err < 1e-18)

let test_refinement_well_conditioned () =
  let n = 12 in
  let a = random_mat n in
  (* make it diagonally dominant *)
  for i = 0 to n - 1 do
    a.((i * n) + i) <- 10.0 +. Float.abs a.((i * n) + i)
  done;
  let am = L4.mat_of_floats a in
  let x_true = Array.init n (fun i -> M4.div (M4.of_int (i + 1)) (M4.of_int 7)) in
  let b = L4.mat_vec ~n am x_true in
  let x, stats = R4.solve ~n ~a ~b () in
  Alcotest.(check bool) "converged" true stats.R4.converged;
  for i = 0 to n - 1 do
    let d = Float.abs (M4.to_float (M4.sub x.(i) x_true.(i))) in
    if d > 1e-55 then Alcotest.failf "x_%d off by %h" i d
  done

(* A stalled refinement step is rejected, so the returned solution is
   the iterate whose residual is reported: recomputing b - A x from the
   returned x gives [final_residual_norm] exactly, for the scalar and
   the planar solver alike, and the two agree bit for bit. *)
module Best (M : Multifloat.Ops.S) (V : Multifloat.Batch.V with type elt = M.t) = struct
  module L = Linalg.Make (M)
  module R = Linalg.Refine (M)
  module Rb = Linalg.Refine_batched (M) (V)

  let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

  let check ~what ~n a b =
    let x, st = R.solve ~n ~a ~b () in
    let rn = M.to_float (L.norm_inf (L.residual ~n ~a:(L.mat_of_floats a) ~x ~b)) in
    if not (bits_eq rn st.R.final_residual_norm) then
      Alcotest.failf "%s: returned x has residual %h, reported %h (%d iters)" what rn
        st.R.final_residual_norm st.R.iterations;
    let xb, stb = Rb.solve ~n ~a ~b () in
    if stb.Rb.iterations <> st.R.iterations || not (bits_eq stb.Rb.final_residual_norm rn) then
      Alcotest.failf "%s: planar solver stats differ" what;
    Array.iteri
      (fun i xi ->
        if not (Array.for_all2 bits_eq (M.components xi) (M.components xb.(i))) then
          Alcotest.failf "%s: planar x_%d differs" what i)
      x

  let run () =
    List.iter
      (fun n ->
        let a = hilbert n in
        let b = L.mat_vec ~n (L.mat_of_floats a) (Array.make n M.one) in
        check ~what:(Printf.sprintf "hilbert %d" n) ~n a b)
      [ 7; 9; 10; 12 ];
    let n = 64 in
    let a = Array.init (n * n) (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    for i = 0 to n - 1 do
      let s = ref 1.0 in
      for j = 0 to n - 1 do
        if j <> i then s := !s +. Float.abs a.((i * n) + j)
      done;
      a.((i * n) + i) <- !s
    done;
    let b = Array.init n (fun _ -> M.of_components (Fpan.Gen.expansion rng ~n:M.terms ())) in
    check ~what:"diagonally dominant 64" ~n a b
end

module Best2 = Best (Multifloat.Mf2) (Multifloat.Batch.Mf2v)
module Best4 = Best (Multifloat.Mf4) (Multifloat.Batch.Mf4v)

let () =
  Alcotest.run "linalg"
    [ ( "lu",
        [ Alcotest.test_case "solve random" `Quick test_solve_random;
          Alcotest.test_case "identity" `Quick test_solve_identity;
          Alcotest.test_case "singular" `Quick test_singular_detected;
          Alcotest.test_case "det" `Quick test_det;
          Alcotest.test_case "inverse" `Quick test_inverse ] );
      ( "cholesky",
        [ Alcotest.test_case "factor + solve" `Quick test_cholesky;
          Alcotest.test_case "rejects indefinite" `Quick test_cholesky_not_spd ] );
      ("norms", [ Alcotest.test_case "norms" `Quick test_norms ]);
      ( "refinement",
        [ Alcotest.test_case "hilbert 8" `Quick test_refinement_hilbert;
          Alcotest.test_case "beats double" `Quick test_refinement_beats_double;
          Alcotest.test_case "well conditioned" `Quick test_refinement_well_conditioned;
          Alcotest.test_case "returns best iterate mf2" `Quick Best2.run;
          Alcotest.test_case "returns best iterate mf4" `Quick Best4.run ] ) ]
