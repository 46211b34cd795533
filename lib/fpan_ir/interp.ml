(* Reference interpreters for IR programs.

   [run] evaluates a program on scalar floats through [Eft], so it is
   bitwise the semantics the codegen'd kernels must reproduce
   ([~two_prod:Eft.two_prod_dekker] for the Dekker-split kernels).
   [run_planes] stages a program over [floatarray] planes without
   codegen: one loop over the element range, inputs bound per slot to a
   plane load (optionally negated), a loop-invariant scalar, or a
   loop-carried accumulator.  It exists for two reasons: it is the
   interpreter half of the staging trade-off documented in DESIGN.md
   s10, and it gives the tests/tool an executable oracle for fused
   programs that does not go through the generated kernels. *)

module F = Float.Array

let run ?(two_prod = Eft.two_prod) (p : Ir.t) (inputs : float array) : float array =
  if Array.length inputs <> p.Ir.num_inputs then
    invalid_arg
      (Printf.sprintf "Fpan_ir.Interp.run: %s wants %d inputs, got %d" p.Ir.name p.Ir.num_inputs
         (Array.length inputs));
  let vals = Array.make (2 * max 1 (Array.length p.Ir.gates)) 0.0 in
  let value = function Ir.In i -> inputs.(i) | Ir.Res (g, k) -> vals.((2 * g) + k) in
  Array.iteri
    (fun i g ->
      match g with
      | Ir.Two_sum (a, b) ->
          let s, e = Eft.two_sum (value a) (value b) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- e
      | Ir.Fast_two_sum (a, b) ->
          let s, e = Eft.fast_two_sum (value a) (value b) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- e
      | Ir.Two_prod (a, b) ->
          let s, e = two_prod (value a) (value b) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- e
      | Ir.Add (a, b) -> vals.(2 * i) <- value a +. value b
      | Ir.Mul (a, b) -> vals.(2 * i) <- value a *. value b
      | Ir.Neg a -> vals.(2 * i) <- -.value a
      | Ir.Const c -> vals.(2 * i) <- c)
    p.Ir.gates;
  Array.map value p.Ir.outputs

(* Reduced-precision program semantics: [run] with every primitive
   floating-point operation rounded through [round] — the EFT gates
   become their branch-free multi-op circuits (6-op TwoSum, 3-op
   FastTwoSum, mul+fma TwoProd) with each constituent op rounded.
   This is the independent width-w oracle the verification backend's
   circuit evaluator is checked against bitwise; it is sound as a
   width-w reference only while each double step is exact (TwoProd
   additionally needs 2w <= 53 so the double product is exact). *)
let run_rounded ~round (p : Ir.t) (inputs : float array) : float array =
  if Array.length inputs <> p.Ir.num_inputs then
    invalid_arg
      (Printf.sprintf "Fpan_ir.Interp.run_rounded: %s wants %d inputs, got %d" p.Ir.name
         p.Ir.num_inputs (Array.length inputs));
  let vals = Array.make (2 * max 1 (Array.length p.Ir.gates)) 0.0 in
  let value = function Ir.In i -> inputs.(i) | Ir.Res (g, k) -> vals.((2 * g) + k) in
  Array.iteri
    (fun i g ->
      match g with
      | Ir.Two_sum (a, b) ->
          let x = value a and y = value b in
          let s = round (x +. y) in
          let x_eff = round (s -. y) in
          let y_eff = round (s -. x_eff) in
          let dx = round (x -. x_eff) in
          let dy = round (y -. y_eff) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- round (dx +. dy)
      | Ir.Fast_two_sum (a, b) ->
          let x = value a and y = value b in
          let s = round (x +. y) in
          let y_eff = round (s -. x) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- round (y -. y_eff)
      | Ir.Two_prod (a, b) ->
          let x = value a and y = value b in
          let pr = round (x *. y) in
          vals.(2 * i) <- pr;
          (* fma's x*y - pr is exact in double while 2w <= 53 *)
          vals.((2 * i) + 1) <- round (Float.fma x y (-.pr))
      | Ir.Add (a, b) -> vals.(2 * i) <- round (value a +. value b)
      | Ir.Mul (a, b) -> vals.(2 * i) <- round (value a *. value b)
      | Ir.Neg a -> vals.(2 * i) <- -.value a
      | Ir.Const c -> vals.(2 * i) <- round c)
    p.Ir.gates;
  Array.map value p.Ir.outputs

(* Per-slot input binding for [run_planes]. *)
type src =
  | Plane of F.t * int  (** plane, offset: slot reads [plane.(off + i)] *)
  | Neg_plane of F.t * int  (** negated plane load (the sub kernels) *)
  | Scalar of float  (** loop-invariant scalar (alpha components) *)
  | Acc of float ref  (** loop-carried accumulator, read each iteration *)

(* Per-output sink. *)
type dst =
  | Store of F.t * int  (** write [plane.(off + i)] *)
  | Update of float ref  (** accumulator update, after all reads *)
  | Discard

let run_planes (p : Ir.t) ~lo ~hi ~(args : src array) ~(outs : dst array) : unit =
  if Array.length args <> p.Ir.num_inputs then
    invalid_arg (Printf.sprintf "Fpan_ir.Interp.run_planes: %s: bad arg count" p.Ir.name);
  if Array.length outs <> Array.length p.Ir.outputs then
    invalid_arg (Printf.sprintf "Fpan_ir.Interp.run_planes: %s: bad out count" p.Ir.name);
  let inp = Array.make (Array.length args) 0.0 in
  for i = lo to hi - 1 do
    Array.iteri
      (fun k s ->
        inp.(k) <-
          (match s with
          | Plane (a, off) -> F.get a (off + i)
          | Neg_plane (a, off) -> -.F.get a (off + i)
          | Scalar v -> v
          | Acc r -> !r))
      args;
    let res = run p inp in
    (* all outputs are computed before any sink fires, so an [Update]
       feeding an [Acc] of the same ref is well-defined *)
    Array.iteri
      (fun k d ->
        match d with
        | Store (a, off) -> F.set a (off + i) res.(k)
        | Update r -> r := res.(k)
        | Discard -> ())
      outs
  done
