(* Batched (planar, structure-of-arrays) kernels vs the scalar path.

   The batch layer promises *bitwise* equality with the scalar kernels:
   the per-element arithmetic is the same FPAN wire program, generated
   for both the scalar records and the component planes, and the
   accumulation orders match.
   So these tests don't use error budgets — every comparison is on the
   raw bits of every expansion component, over random inputs and over
   the adversarial structures that break naive networks (massive
   cancellation, ulp-adjacent values, powers of two, nonoverlapping
   expansions with extreme gaps), sequential and on the scheduler. *)

let rng = Random.State.make [| 0xba7c; 11 |]

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A batched instance plus the scalar component surface the bitwise
   comparison needs (Instances seals everything down to
   Numeric.BATCHED, so the extra ops come from the multifloat module
   itself). *)
module type INSTANCE = sig
  include Blas.Numeric.BATCHED

  val sub : t -> t -> t
  val components : t -> float array
  val of_components : float array -> t
end

module CheckB (N : INSTANCE) = struct
  module Ks = Blas.Kernels.Make (N)
  module Kb = Blas.Kernels.Make_batched (N)
  module V = Kb.V

  let eq_t a b =
    let ca = N.components a and cb = N.components b in
    Array.length ca = Array.length cb
    && Array.for_all2 (fun x y -> bits_eq x y) ca cb

  let check_vec what xs v =
    if Array.length xs <> V.length v then Alcotest.failf "%s %s: length" N.name what;
    Array.iteri
      (fun i x ->
        if not (eq_t x (V.get v i)) then Alcotest.failf "%s %s: element %d differs" N.name what i)
      xs

  (* --- input vectors: random and adversarial, element for element --- *)

  let random_elt () =
    N.of_components (Fpan.Gen.expansion rng ~n:V.terms ~e0_min:(-40) ~e0_max:40 ())

  let adversarial_elt i =
    match i mod 4 with
    | 0 ->
        (* extreme inter-term gaps *)
        N.of_components (Fpan.Gen.expansion rng ~n:V.terms ~e0_min:(-200) ~e0_max:200 ())
    | 1 ->
        (* ulp-adjacent to a power of two *)
        let b = Float.ldexp 1.0 (Random.State.int rng 41 - 20) in
        N.of_float (if Random.State.bool rng then Float.succ b else Float.pred b)
    | 2 ->
        (* exact power of two, half of them negative *)
        let b = Float.ldexp 1.0 (Random.State.int rng 81 - 40) in
        N.of_float (if Random.State.bool rng then b else -.b)
    | _ -> random_elt ()

  let random_elts n = Array.init n (fun _ -> random_elt ())
  let adversarial_elts n = Array.init n adversarial_elt

  (* y built to cancel massively against x: y_i = tiny - x_i, so
     x_i + y_i collapses ~all leading bits. *)
  let cancelling_against x =
    Array.map
      (fun xi -> N.sub (N.of_float (Float.ldexp (Random.State.float rng 1.0) (-45))) xi)
      x

  (* --- element/bulk op equality: add, sub, mul, roundtrips --- *)

  let test_ops () =
    List.iter
      (fun (what, xs) ->
        let n = Array.length xs in
        let ys =
          if what = "cancel" then cancelling_against xs
          else adversarial_elts n
        in
        let xv = V.of_array xs and yv = V.of_array ys in
        check_vec (what ^ " roundtrip") xs xv;
        let dst = V.create n in
        V.add ~dst xv yv;
        check_vec (what ^ " add") (Array.map2 N.add xs ys) dst;
        V.sub ~dst xv yv;
        check_vec (what ^ " sub") (Array.map2 N.sub xs ys) dst;
        V.mul ~dst xv yv;
        check_vec (what ^ " mul") (Array.map2 N.mul xs ys) dst;
        (* set/get and copy preserve bits *)
        let cp = V.copy xv in
        V.set cp 0 ys.(0);
        if not (eq_t ys.(0) (V.get cp 0)) then Alcotest.failf "%s set/get" N.name;
        check_vec "copy unaliased" xs xv)
      [ ("random", random_elts 33); ("adversarial", adversarial_elts 33);
        ("cancel", random_elts 33) ]

  (* --- kernel equality, sequential --- *)

  let check_kernels what xs ys =
    let n = Array.length xs in
    let xv = V.of_array xs and yv = V.of_array ys in
    (* DOT *)
    let ds = Ks.dot ~x:xs ~y:ys in
    let db = Kb.dot ~x:xv ~y:yv in
    if not (eq_t ds db) then Alcotest.failf "%s %s dot differs" N.name what;
    (* AXPY *)
    let alpha = adversarial_elt 0 in
    let y1 = Array.copy ys and y2 = V.of_array ys in
    Ks.axpy ~alpha ~x:xs ~y:y1;
    Kb.axpy ~alpha ~x:xv ~y:y2;
    check_vec (what ^ " axpy") y1 y2;
    (* GEMV: reuse a prefix of xs as a 6x(n/6) matrix *)
    let m = 6 in
    let nn = n / m in
    let am = Array.sub xs 0 (m * nn) in
    let ys1 = Array.make m N.zero and ys2 = V.create m in
    Ks.gemv ~m ~n:nn ~a:am ~x:(Array.sub ys 0 nn) ~y:ys1;
    Kb.gemv ~m ~n:nn ~a:(V.of_array am) ~x:(V.of_array (Array.sub ys 0 nn)) ~y:ys2;
    check_vec (what ^ " gemv") ys1 ys2;
    (* GEMM: 4x5 * 5x3 *)
    let m, k, nn = (4, 5, 3) in
    let a = Array.sub xs 0 (m * k) and b = Array.sub ys 0 (k * nn) in
    let c1 = Array.make (m * nn) N.zero in
    let c2 = V.of_array c1 in
    Ks.gemm ~m ~n:nn ~k ~a ~b ~c:c1;
    Kb.gemm ~m ~n:nn ~k ~a:(V.of_array a) ~b:(V.of_array b) ~c:c2;
    check_vec (what ^ " gemm") c1 c2

  let test_kernels () =
    let xs = random_elts 48 in
    check_kernels "random" xs (random_elts 48);
    check_kernels "cancel" xs (cancelling_against xs);
    check_kernels "adversarial" (adversarial_elts 48) (adversarial_elts 48)

  (* --- kernel equality, parallel: the runtime kernels on a 3-worker
     scheduler must reproduce the scalar sequential results bit-for-bit
     (AXPY/GEMV/GEMM keep the sequential accumulation order at any
     worker count); DOT reduces over a fixed tree instead, so it must
     match its own 1-worker result --- *)

  let test_runtime_kernels () =
    Runtime.Sched.with_sched ~workers:1 (fun rt1 ->
        Runtime.Sched.with_sched ~workers:3 (fun rt ->
            List.iter
              (fun (what, xs, ys) ->
                let n = Array.length xs in
                let xv = V.of_array xs and yv = V.of_array ys in
                if not (eq_t (Kb.dot_rt rt1 ~x:xv ~y:yv) (Kb.dot_rt rt ~x:xv ~y:yv)) then
                  Alcotest.failf "%s %s runtime dot depends on the worker count" N.name what;
                let alpha = adversarial_elt 0 in
                let y1 = Array.copy ys and y2 = V.of_array ys in
                Ks.axpy ~alpha ~x:xs ~y:y1;
                Kb.axpy_rt rt ~alpha ~x:xv ~y:y2;
                check_vec (what ^ " runtime axpy") y1 y2;
                let m = 6 in
                let nn = n / m in
                let am = Array.sub xs 0 (m * nn) in
                let ys1 = Array.make m N.zero and ys2 = V.create m in
                Ks.gemv ~m ~n:nn ~a:am ~x:(Array.sub ys 0 nn) ~y:ys1;
                Kb.gemv_rt rt ~m ~n:nn ~a:(V.of_array am) ~x:(V.of_array (Array.sub ys 0 nn)) ~y:ys2;
                check_vec (what ^ " runtime gemv") ys1 ys2;
                let m, k, nn = (4, 5, 3) in
                let a = Array.sub xs 0 (m * k) and b = Array.sub ys 0 (k * nn) in
                let c1 = Array.make (m * nn) N.zero in
                let c2 = V.of_array c1 in
                Ks.gemm ~m ~n:nn ~k ~a ~b ~c:c1;
                Kb.gemm_rt rt ~m ~n:nn ~k ~a:(V.of_array a) ~b:(V.of_array b) ~c:c2 ();
                check_vec (what ^ " runtime gemm") c1 c2)
              (let xs = random_elts 64 in
               [ ("random", xs, random_elts 64);
                 ("cancel", xs, cancelling_against xs);
                 ("adversarial", adversarial_elts 64, adversarial_elts 64) ])))

  (* --- outputs of the batched networks stay nonoverlapping (the
     paper's Eq. 8 invariant), including under massive cancellation --- *)

  let test_nonoverlap () =
    let n = 64 in
    let xs = random_elts n in
    List.iter
      (fun ys ->
        let xv = V.of_array xs and yv = V.of_array ys in
        let dst = V.create n in
        List.iter
          (fun (what, (op : dst:V.t -> V.t -> V.t -> unit)) ->
            op ~dst xv yv;
            for i = 0 to n - 1 do
              if not (Eft.is_nonoverlapping_seq (N.components (V.get dst i))) then
                Alcotest.failf "%s batched %s output %d overlaps" N.name what i
            done)
          [ ("add", V.add); ("sub", V.sub); ("mul", V.mul) ])
      [ random_elts n; cancelling_against xs ]

  (* --- qcheck: dot bitwise equality on arbitrary sign/magnitude mixes --- *)

  let arb_elt_floats =
    let open QCheck.Gen in
    let tricky =
      let* m = float_range (-2.0) 2.0 in
      let* e = int_range (-40) 40 in
      return (Float.ldexp m e)
    in
    let one = frequency [ (6, tricky); (1, return 0.0); (1, return 1.0); (1, return (-1.0)) ] in
    QCheck.make
      ~print:(fun l -> String.concat ";" (List.map (Printf.sprintf "%h") l))
      (list_size (int_range 1 40) one)

  let qcheck_dot =
    QCheck.Test.make ~count:300 ~name:(N.name ^ " batched dot bitwise = scalar dot")
      (QCheck.pair arb_elt_floats arb_elt_floats)
      (fun (lx, ly) ->
        let n = min (List.length lx) (List.length ly) in
        let xs = Array.init n (List.nth lx) |> Array.map N.of_float in
        let ys = Array.init n (List.nth ly) |> Array.map N.of_float in
        eq_t (Ks.dot ~x:xs ~y:ys) (Kb.dot ~x:(V.of_array xs) ~y:(V.of_array ys)))

  let qcheck_axpy =
    QCheck.Test.make ~count:300 ~name:(N.name ^ " batched axpy bitwise = scalar axpy")
      (QCheck.pair arb_elt_floats arb_elt_floats)
      (fun (lx, ly) ->
        let n = min (List.length lx) (List.length ly) in
        let xs = Array.init n (List.nth lx) |> Array.map N.of_float in
        let ys = Array.init n (List.nth ly) |> Array.map N.of_float in
        let alpha = N.of_float (List.nth lx 0) in
        let y1 = Array.copy ys and y2 = V.of_array ys in
        Ks.axpy ~alpha ~x:xs ~y:y1;
        Kb.axpy ~alpha ~x:(V.of_array xs) ~y:y2;
        Array.for_all (fun b -> b) (Array.mapi (fun i v -> eq_t v (V.get y2 i)) y1))

  (* --- cross-op fusion: the fused single-pass kernels (sum, dot)
     are bitwise their op-by-op compositions -- the spellings
     that materialize every intermediate plane -- over the Section 4.4
     corpus classes (subnormal, near-overflow, cancellation, ulp ties,
     zeros, specials) and lengths {0, 1, 7, 1024}. --- *)

  (* the corpus speaks multi-term expansions only; the single-plane
     double tier falls back to the adversarial element mix *)
  let corpus_elts len off =
    if V.terms < 2 then (adversarial_elts len, adversarial_elts len)
    else
    let xs = Array.make len N.zero and ys = Array.make len N.zero in
    for j = 0 to len - 1 do
      let c = Check.Corpus.scalar_case rng ~terms:V.terms (off + j) in
      xs.(j) <- N.of_components c.Check.Corpus.x;
      ys.(j) <- N.of_components c.Check.Corpus.y
    done;
    (xs, ys)

  let check_elt what len b1 b2 =
    if not (eq_t b1 b2) then Alcotest.failf "%s fused %s (len %d) differs" N.name what len

  let test_fused () =
    List.iter
      (fun len ->
        let xs, ys = corpus_elts len (7 * len) in
        let xv = V.of_array xs and yv = V.of_array ys in
        (* sum is the scalar add fold in index order *)
        check_elt "sum" len
          (Array.fold_left N.add N.zero xs)
          (V.sum ~init:N.zero ~x:xv ~xoff:0 ~len);
        (* dot = elementwise mul into a temporary plane set, then sum *)
        let tmp = V.create len in
        V.mul ~dst:tmp xv yv;
        let d_unfused = V.sum ~init:N.zero ~x:tmp ~xoff:0 ~len in
        let d_fused = V.dot ~init:N.zero ~x:xv ~xoff:0 ~y:yv ~yoff:0 ~len in
        check_elt "dot" len d_unfused d_fused)
      [ 0; 1; 7; 1024 ]

  (* --- the IR interpreter is an executable oracle: iterating the
     fused per-element wire programs from lib/fpan_ir reproduces the
     planar kernels bit for bit (tiers with a wire program only) --- *)

  let test_ir_oracle () =
    if V.terms >= 2 && V.terms <= 4 then begin
      let t = V.terms in
      let len = 23 in
      let comps = N.components in
      let xs, ys = corpus_elts len 31 in
      let xv = V.of_array xs in
      let dot_step = Fpan_ir.Fuse.chain "dot_step" t in
      let acc = ref N.zero in
      for i = 0 to len - 1 do
        acc :=
          N.of_components
            (Fpan_ir.Interp.run dot_step
               (Array.concat [ comps !acc; comps xs.(i); comps ys.(i) ]))
      done;
      let v = V.dot ~init:N.zero ~x:xv ~xoff:0 ~y:(V.of_array ys) ~yoff:0 ~len in
      if not (eq_t !acc v) then Alcotest.failf "%s IR dot oracle differs" N.name;
      (* the residual's subtraction b - dot, as [V.sub] runs it *)
      let sub = Fpan_ir.Fuse.chain "sub" t in
      let b0 = ys.(0) in
      let r = N.of_components (Fpan_ir.Interp.run sub (Array.append (comps b0) (comps v))) in
      let rv = V.create 1 in
      V.sub ~dst:rv (V.of_array [| b0 |]) (V.of_array [| v |]);
      if not (eq_t r (V.get rv 0)) then Alcotest.failf "%s IR sub oracle differs" N.name
    end

  let qcheck_residual =
    QCheck.Test.make ~count:300
      ~name:(N.name ^ " residual row bitwise = dot;sub")
      (QCheck.pair arb_elt_floats arb_elt_floats)
      (fun (lx, ly) ->
        let n = min (List.length lx) (List.length ly) in
        let xs = Array.init n (List.nth lx) |> Array.map N.of_float in
        let ys = Array.init n (List.nth ly) |> Array.map N.of_float in
        let b = N.of_float (List.nth lx 0) in
        let xv = V.of_array xs in
        (* the residual row b - dot, spelled as the solvers run it: the
           dot_rows fold, then [V.sub] *)
        let d = V.create 1 and r = V.create 1 in
        V.dot_rows ~a:xv ~aoff:0 ~ld:n ~x:(V.of_array ys) ~xoff:0 ~len:n ~dst:d ~lo:0 ~hi:1;
        V.sub ~dst:r (V.of_array [| b |]) d;
        let du =
          N.sub b (V.dot ~init:N.zero ~x:xv ~xoff:0 ~y:(V.of_array ys) ~yoff:0 ~len:n)
        in
        eq_t (V.get r 0) du)

  let cases name =
    [ Alcotest.test_case (name ^ " ops bitwise") `Quick test_ops;
      Alcotest.test_case (name ^ " kernels bitwise") `Quick test_kernels;
      Alcotest.test_case (name ^ " pooled bitwise") `Quick test_runtime_kernels;
      Alcotest.test_case (name ^ " outputs nonoverlapping") `Quick test_nonoverlap;
      Alcotest.test_case (name ^ " fused kernels bitwise") `Quick test_fused;
      Alcotest.test_case (name ^ " IR oracle") `Quick test_ir_oracle;
      QCheck_alcotest.to_alcotest qcheck_dot;
      QCheck_alcotest.to_alcotest qcheck_axpy;
      QCheck_alcotest.to_alcotest qcheck_residual ]
end

(* --- C kernels vs their OCaml fallback loops.  Every tier's V
   operations run generated C loops that decline any 64-element block
   (or fold step) with a NaN output and leave it to the generated OCaml
   loop ([_ml]).  Held bitwise -- raw NaN bits included -- to the [_ml]
   loops and to the scalar kernels, sequentially and on the engine at 1
   and 4 workers, over lengths around the block size at nonzero
   offsets, with NaNs placed at block edges and fold steps, three NaN
   payloads, inf*0 and near-overflow products that raise NaNs inside
   the networks, and a madd of one vector onto itself. --- *)

module type SCALAR_REF = sig
  type t

  val name : string
  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val components : t -> float array
  val of_components : float array -> t

  val exact_nan : bool
  (** Whether the scalar reference fixes NaN payloads.  The FPAN tiers'
      scalar kernels are generated from the planar kernels' programs,
      so they do.  The double tier's reference is OCaml's own float
      operators, whose surviving NaN payload follows ocamlopt's operand
      selection (it swaps a commutative operand that is a memory load),
      so there a NaN only has to meet a NaN. *)
end

module Fallback
    (T : Multifloat.Batch.TIER)
    (S : SCALAR_REF with type t = T.elt) =
struct
  let terms = T.terms
  let rng = Random.State.make [| 0xfa11; terms |]

  let show e =
    String.concat "," (Array.to_list (Array.map (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)) (S.components e)))

  let check_with ~exact what a b =
    let same x y = bits_eq x y || ((not exact) && Float.is_nan x && Float.is_nan y) in
    if not (Array.for_all2 same (S.components a) (S.components b)) then
      Alcotest.failf "%s %s: %s <> %s" S.name what (show a) (show b)

  let check_elt = check_with ~exact:true
  let check_scalar = check_with ~exact:S.exact_nan

  let check_arr ?(check = check_elt) what (xs : T.elt array) v =
    Array.iteri (fun i x -> check (Printf.sprintf "%s [%d]" what i) x (T.get v i)) xs

  let check_vecs what a b = check_arr what (T.to_array a) b

  let elt ?(e0_min = -30) ?(e0_max = 30) () =
    S.of_components (Fpan.Gen.expansion rng ~n:terms ~e0_min ~e0_max ())

  (* OCaml's [nan], the negated default quiet NaN, a signalling NaN *)
  let payloads =
    [ ("ocaml nan", Float.nan);
      ("-qnan", Int64.float_of_bits 0xfff8000000000000L);
      ("snan", Int64.float_of_bits 0x7ff0000000000001L) ]

  type poison = Nan of string * float | Inf_zero | Overflow

  let poisons = List.map (fun (n, p) -> Nan (n, p)) payloads @ [ Inf_zero; Overflow ]

  let poison_name = function
    | Nan (n, _) -> n
    | Inf_zero -> "inf*0"
    | Overflow -> "overflow"

  let with_comp e k v =
    let c = S.components e in
    c.(k) <- v;
    S.of_components c

  (* the same NaN with a different payload *)
  let other_nan p = Int64.(float_of_bits (logxor (bits_of_float p) 0x8000000000000002L))

  (* Operand arrays of length [n] with element [i] of each poisoned for
     every [i] in [at].  NaN poison puts distinct payloads into two
     components of x and one of y, so NaNs meet inside the networks and
     the payload that survives depends on operand order. *)
  let operands ~n ~at poison =
    let xs = Array.init n (fun _ -> elt ()) and ys = Array.init n (fun _ -> elt ()) in
    List.iter
      (fun i ->
        if i >= 0 && i < n then
          match poison with
          | Nan (_, p) ->
              let k = i mod terms in
              xs.(i) <- with_comp (with_comp xs.(i) ((k + 1) mod terms) (other_nan p)) k p;
              ys.(i) <- with_comp ys.(i) k (Float.neg p)
          | Inf_zero ->
              xs.(i) <- S.of_components (Array.init terms (fun k -> if k = 0 then Float.infinity else 0.0));
              ys.(i) <- S.zero
          | Overflow ->
              xs.(i) <- elt ~e0_min:1000 ~e0_max:1020 ();
              ys.(i) <- elt ~e0_min:1000 ~e0_max:1020 ())
      at;
    (xs, ys)

  let xoff = 3
  let yoff = 5
  let pad = 8

  (* planar vector holding [es] at offset [off] inside [pad]ding *)
  let placed es off =
    let v = T.create (Array.length es + pad) in
    Array.iteri (fun i e -> T.set v (off + i) e) es;
    v

  let fold_dot init xs ys =
    let acc = ref init in
    Array.iteri (fun i x -> acc := S.add !acc (S.mul x ys.(i))) xs;
    !acc

  let sequential ~what ~n xs ys =
    let alpha = elt () and init = elt () in
    (* elementwise: C vs [_ml] vs scalar *)
    let xv = T.of_array xs and yv = T.of_array ys in
    List.iter
      (fun (op, c_op, ml_op, s_op) ->
        let d1 = T.create n and d2 = T.create n in
        c_op ~dst:d1 xv yv;
        ml_op ~dst:d2 xv yv;
        check_vecs (Printf.sprintf "%s %s C vs ml" what op) d2 d1;
        check_arr ~check:check_scalar (Printf.sprintf "%s %s C vs scalar" what op) (Array.map2 s_op xs ys) d1)
      [ ("add", T.add, T.add_ml, S.add); ("sub", T.sub, T.sub_ml, S.sub);
        ("mul", T.mul, T.mul_ml, S.mul) ];
    (* axpy over [xoff, xoff + n) of padded vectors *)
    let x = placed xs xoff and y1 = placed ys xoff and y2 = placed ys xoff in
    T.axpy ~lo:xoff ~hi:(xoff + n) ~alpha ~x ~y:y1;
    T.axpy_ml ~lo:xoff ~hi:(xoff + n) ~alpha ~x ~y:y2;
    check_vecs (what ^ " axpy C vs ml") y2 y1;
    check_arr ~check:check_scalar (what ^ " axpy C vs scalar")
      (Array.init (n + pad) (fun i ->
           if i >= xoff && i < xoff + n then S.add (S.mul alpha xs.(i - xoff)) ys.(i - xoff)
           else T.get y2 i))
      y1;
    (* madd at two different offsets *)
    let x = placed xs xoff and y1 = placed ys yoff and y2 = placed ys yoff in
    T.madd ~alpha ~x ~xoff ~y:y1 ~yoff ~len:n;
    T.madd_ml ~alpha ~x ~xoff ~y:y2 ~yoff ~len:n;
    check_vecs (what ^ " madd C vs ml") y2 y1;
    Array.iteri
      (fun i yi ->
        check_scalar (Printf.sprintf "%s madd C vs scalar [%d]" what i)
          (S.add yi (S.mul alpha xs.(i))) (T.get y1 (yoff + i)))
      ys;
    (* folds *)
    let x = placed xs xoff and y = placed ys yoff in
    let d = T.dot ~init ~x ~xoff ~y ~yoff ~len:n in
    check_elt (what ^ " dot C vs ml") (T.dot_ml ~init ~x ~xoff ~y ~yoff ~len:n) d;
    check_scalar (what ^ " dot C vs scalar") (fold_dot init xs ys) d;
    let s = T.sum ~init ~x ~xoff ~len:n in
    check_elt (what ^ " sum C vs ml") (T.sum_ml ~init ~x ~xoff ~len:n) s;
    check_scalar (what ^ " sum C vs scalar") (Array.fold_left S.add init xs) s;
    (* madd of one vector onto itself: shifted both ways, and in place *)
    List.iter
      (fun (xo, yo) ->
        let v1 = placed xs 0 and v2 = placed xs 0 in
        let len = n + pad - max xo yo in
        T.madd ~alpha ~x:v1 ~xoff:xo ~y:v1 ~yoff:yo ~len;
        T.madd_ml ~alpha ~x:v2 ~xoff:xo ~y:v2 ~yoff:yo ~len;
        let what = Printf.sprintf "%s self-madd %d->%d" what xo yo in
        check_vecs (what ^ " C vs ml") v2 v1;
        let a = T.to_array (placed xs 0) in
        for i = 0 to len - 1 do
          a.(yo + i) <- S.add a.(yo + i) (S.mul alpha a.(xo + i))
        done;
        check_arr ~check:check_scalar (what ^ " C vs scalar") a v1)
      [ (xoff, yoff); (yoff, xoff); (xoff, xoff) ]

  (* dot_rows: rows [lo, lo + rows) of a matrix at [aoff] with leading
     dimension [len + 1], against [x] at [xoff].  The lane kernel equals
     its [_ml] twin and the scalar fold, rows outside the range stay
     untouched, and a row holding two NaN payloads (one lane of a full
     group where there is one) equals [dot] of that row, payload and
     all, while the other rows keep the lanes' values. *)
  let dot_rows_case ~what ~rows ~len ?payload () =
    let lo = 2 and aoff = 3 and ld = len + 1 in
    let hi = lo + rows in
    let arows = Array.init hi (fun _ -> Array.init len (fun _ -> elt ())) in
    let xs = Array.init len (fun _ -> elt ()) in
    let nan_row = lo + min (rows - 1) (T.lanes / 2) in
    (* NaN payloads in two components of one element and the negated
       other payload in the next, so NaNs meet inside the fold *)
    (match payload with
    | Some p when rows > 0 && len > 0 ->
        let row = arows.(nan_row) and j = len / 2 in
        row.(j) <- with_comp (with_comp row.(j) (1 mod terms) (other_nan p)) 0 p;
        for k = 0 to terms - 1 do
          if j + 1 + k < len then
            row.(j + 1 + k) <- with_comp row.(j + 1 + k) k (Float.neg (other_nan p))
        done
    | _ -> ());
    let a = T.create (aoff + (hi * ld)) in
    Array.iteri (fun i row -> Array.iteri (fun j e -> T.set a (aoff + (i * ld) + j) e) row) arows;
    let x = placed xs xoff in
    let d1 = T.create (hi + pad) and d2 = T.create (hi + pad) in
    T.dot_rows ~a ~aoff ~ld ~x ~xoff ~len ~dst:d1 ~lo ~hi;
    T.dot_rows_ml ~a ~aoff ~ld ~x ~xoff ~len ~dst:d2 ~lo ~hi;
    check_vecs (what ^ " dot_rows C vs ml") d2 d1;
    for i = 0 to hi + pad - 1 do
      let want = if i >= lo && i < hi then fold_dot S.zero arows.(i) xs else S.zero in
      check_scalar (Printf.sprintf "%s dot_rows C vs scalar [%d]" what i) want (T.get d1 i)
    done;
    if payload <> None && rows > 0 && len > 0 then
      check_elt (what ^ " dot_rows NaN row = dot")
        (T.dot ~init:S.zero ~x:a ~xoff:(aoff + (nan_row * ld)) ~y:x ~yoff:xoff ~len)
        (T.get d1 nan_row)

  let test_dot_rows () =
    let w = T.lanes in
    List.iter
      (fun rows ->
        List.iter
          (fun len ->
            let what = Printf.sprintf "rows=%d len=%d" rows len in
            dot_rows_case ~what:("clean " ^ what) ~rows ~len ();
            List.iter
              (fun (name, p) -> dot_rows_case ~what:(name ^ " " ^ what) ~rows ~len ~payload:p ())
              payloads)
          [ 0; 1; 63; 64; 65 ])
      (List.sort_uniq compare [ 0; 1; w - 1; w; w + 1; (3 * w) + 5 ]);
    (* a destination that is also the matrix or the vector: each row's
       store is seen by the rows after it, as in the [_ml] loop *)
    let n = 9 and rows = w + 3 in
    let es = Array.init (rows * n) (fun _ -> elt ()) in
    let a1 = T.of_array es and a2 = T.of_array es in
    T.dot_rows ~a:a1 ~aoff:0 ~ld:n ~x:a1 ~xoff:1 ~len:n ~dst:a1 ~lo:0 ~hi:rows;
    T.dot_rows_ml ~a:a2 ~aoff:0 ~ld:n ~x:a2 ~xoff:1 ~len:n ~dst:a2 ~lo:0 ~hi:rows;
    check_vecs "dot_rows into its own operand" a2 a1

  module E = struct
    type t = S.t

    let zero = S.zero
    let add = S.add
  end

  (* the same tier with every kernel the engine calls on its OCaml loop *)
  module Ml = struct
    include T

    let axpy = axpy_ml
    let madd = madd_ml
    let dot = dot_ml
    let dot_rows = dot_rows_ml
  end

  module Ec = Runtime.Engine.Make (E) (T)
  module Em = Runtime.Engine.Make (E) (Ml)

  (* the engine's kernels on the C loops at 1 and 4 workers vs the
     OCaml loops on 1 worker *)
  let engine ~what ~n xs ys =
    let alpha = elt () in
    let m = 3 in
    let am = Array.init (m * n) (fun i -> if i < n then xs.(i) else elt ()) in
    (* an m x gk times gk x gk GEMM whose operands start with xs / ys,
       in tiles small enough to spread over the workers *)
    let gk = min n 40 in
    let cfg = { Runtime.Engine.default_cfg with tile_m = 2; tile_n = 16 } in
    let ga = T.of_array (Array.init (m * gk) (fun i -> if i < n then xs.(i) else elt ())) in
    let gb = T.of_array (Array.init (gk * gk) (fun i -> if i < n then ys.(i) else elt ())) in
    let reference =
      Runtime.Sched.with_sched ~workers:1 (fun rt ->
          let y = T.of_array ys in
          Em.axpy rt ~alpha ~x:(T.of_array xs) ~y ();
          let d = Em.dot rt (T.of_array xs) (T.of_array ys) in
          let gv = T.create m in
          Em.gemv rt ~m ~n ~a:(T.of_array am) ~x:(T.of_array ys) ~y:gv ();
          let c = T.create (m * gk) in
          Em.gemm rt ~cfg ~m ~n:gk ~k:gk ~a:ga ~b:gb ~c ();
          (y, d, gv, c))
    in
    let y0, d0, gv0, c0 = reference in
    List.iter
      (fun workers ->
        Runtime.Sched.with_sched ~workers (fun rt ->
            let what = Printf.sprintf "%s engine (%d workers)" what workers in
            let y = T.of_array ys in
            Ec.axpy rt ~alpha ~x:(T.of_array xs) ~y ();
            check_vecs (what ^ " axpy") y0 y;
            check_elt (what ^ " dot") d0 (Ec.dot rt (T.of_array xs) (T.of_array ys));
            let gv = T.create m in
            Ec.gemv rt ~m ~n ~a:(T.of_array am) ~x:(T.of_array ys) ~y:gv ();
            check_vecs (what ^ " gemv") gv0 gv;
            let c = T.create (m * gk) in
            Ec.gemm rt ~cfg ~m ~n:gk ~k:gk ~a:ga ~b:gb ~c ();
            check_vecs (what ^ " gemm") c0 c))
      [ 1; 4 ]

  let lengths = [ 0; 1; 63; 64; 65; 129; 1024 ]

  (* first / last element of a 64-block, and of the range *)
  let placements n = [ ("block starts", [ 0; 64 ]); ("block ends", [ 63; 127; n - 1 ]) ]

  let test_sequential () =
    List.iter
      (fun n ->
        let xs, ys = operands ~n ~at:[] Inf_zero in
        (* no placement: clean operands *)
        sequential ~what:(Printf.sprintf "clean n=%d" n) ~n xs ys;
        List.iter
          (fun poison ->
            List.iter
              (fun (where, at) ->
                let xs, ys = operands ~n ~at poison in
                sequential ~what:(Printf.sprintf "%s at %s n=%d" (poison_name poison) where n) ~n xs ys)
              (placements n))
          poisons)
      lengths

  let test_engine () =
    List.iter
      (fun n ->
        List.iter
          (fun poison ->
            let xs, ys = operands ~n ~at:[ 0; 63; 64; n - 1 ] poison in
            engine ~what:(Printf.sprintf "%s n=%d" (poison_name poison) n) ~n xs ys)
          poisons)
      [ 1; 65; 1024 ]

  let cases =
    [ Alcotest.test_case (S.name ^ " C vs fallback loops bitwise") `Quick test_sequential;
      Alcotest.test_case (S.name ^ " C vs fallback loops on the engine") `Quick test_engine;
      Alcotest.test_case (S.name ^ " dot_rows lanes vs per-row folds") `Quick test_dot_rows ]
end

module C2 = CheckB (struct
  include Blas.Instances.Mf2

  let sub = Multifloat.Mf2.sub
  let components = Multifloat.Mf2.components
  let of_components = Multifloat.Mf2.of_components
end)

module C3 = CheckB (struct
  include Blas.Instances.Mf3

  let sub = Multifloat.Mf3.sub
  let components = Multifloat.Mf3.components
  let of_components = Multifloat.Mf3.of_components
end)

module C4 = CheckB (struct
  include Blas.Instances.Mf4

  let sub = Multifloat.Mf4.sub
  let components = Multifloat.Mf4.components
  let of_components = Multifloat.Mf4.of_components
end)

(* Double (Mf1v) rides the same planar machinery with a single plane. *)
module C1 = CheckB (struct
  include Blas.Instances.Double

  let sub a b = a -. b
  let components x = [| x |]
  let of_components c = c.(0)
end)

module F1 =
  Fallback
    (Multifloat.Batch.Mf1v)
    (struct
      type t = float

      let name = "double"
      let zero = 0.0
      let add = ( +. )
      let sub = ( -. )
      let mul = ( *. )
      let components x = [| x |]
      let of_components c = c.(0)
      let exact_nan = false
    end)

module F2 = Fallback (Multifloat.Batch.Mf2v) (struct include Multifloat.Mf2 let name = "mf2" let exact_nan = true end)
module F3 = Fallback (Multifloat.Batch.Mf3v) (struct include Multifloat.Mf3 let name = "mf3" let exact_nan = true end)
module F4 = Fallback (Multifloat.Batch.Mf4v) (struct include Multifloat.Mf4 let name = "mf4" let exact_nan = true end)

let () =
  Alcotest.run "batch"
    [ ("double", C1.cases "double" @ F1.cases);
      ("mf2", C2.cases "mf2" @ F2.cases);
      ("mf3", C3.cases "mf3" @ F3.cases);
      ("mf4", C4.cases "mf4" @ F4.cases) ]
