(* Fusion pass: compose IR programs into one program.

   Fusion here is *inlining only*: the composed program's gate list is
   the concatenation of the pieces' gate lists with inputs substituted
   ([Ir.inline]), never a reordering, elision, or algebraic rewrite.
   That is the whole bitwise-safety argument -- each gate computes from
   exactly the values the unfused pipeline would have handed it through
   an intermediate plane, so the fused program is bitwise-equal to the
   op-by-op composition by construction.  What fusion buys is *staging*:
   one loop over the element planes instead of one loop (and one
   materialized intermediate plane set) per op. *)

type src =
  | Arg of int  (** input slot of the fused program *)
  | Out of int * int  (** output [j] of earlier piece [p]: [Out (p, j)] *)

type piece = { prog : Ir.t; args : src array }

let compose ~name ~num_inputs (pieces : piece list) ~(outputs : src list) : Ir.t =
  let b = Ir.B.create ~num_inputs in
  let outs : Ir.value array array = Array.make (List.length pieces) [||] in
  List.iteri
    (fun k piece ->
      let resolve = function
        | Arg i -> Ir.In i
        | Out (p, j) ->
            if p < 0 || p >= k then
              invalid_arg (Printf.sprintf "Fpan_ir.Fuse.compose: %s: piece %d reads piece %d" name k p);
            outs.(p).(j)
      in
      outs.(k) <- Ir.inline b piece.prog (Array.map resolve piece.args))
    pieces;
  let resolve_out = function
    | Arg i -> Ir.In i
    | Out (p, j) -> outs.(p).(j)
  in
  Ir.B.finish b ~name ~outputs:(Array.of_list (List.map resolve_out outputs))

(* --- canned per-element kernel chains -------------------------------- *)
(* [t] is the tier width (terms per element).  Input layout is
   documented per chain; scalar operands (alpha, accumulators) occupy
   [t] input slots just like element operands -- the staging layer
   decides which slots are loop-varying plane loads and which are
   loop-invariant scalars or loop-carried accumulators. *)

let args lo t = Array.init t (fun i -> Arg (lo + i))
let outs p t = Array.init t (fun j -> Out (p, j))
let app = Array.append

(* y' = alpha*x + y.  Inputs: alpha @ x @ y (3t). *)
let axpy t =
  compose ~name:(Printf.sprintf "axpy[mf%d]" t) ~num_inputs:(3 * t)
    [
      { prog = Front.mul_kernel t; args = app (args 0 t) (args t t) };
      { prog = Front.add_kernel t; args = app (outs 0 t) (args (2 * t) t) };
    ]
    ~outputs:(Array.to_list (outs 1 t))

(* y' = y + alpha*x (madd operand order).  Inputs: alpha @ x @ y (3t). *)
let madd t =
  compose ~name:(Printf.sprintf "madd[mf%d]" t) ~num_inputs:(3 * t)
    [
      { prog = Front.mul_kernel t; args = app (args 0 t) (args t t) };
      { prog = Front.add_kernel t; args = app (args (2 * t) t) (outs 0 t) };
    ]
    ~outputs:(Array.to_list (outs 1 t))

(* acc' = acc + x*y: the dot-product loop body.  Inputs: acc @ x @ y. *)
let dot_step t =
  compose ~name:(Printf.sprintf "dot_step[mf%d]" t) ~num_inputs:(3 * t)
    [
      { prog = Front.mul_kernel t; args = app (args t t) (args (2 * t) t) };
      { prog = Front.add_kernel t; args = app (args 0 t) (outs 0 t) };
    ]
    ~outputs:(Array.to_list (outs 1 t))

(* acc' = acc + x: the sum loop body.  Inputs: acc @ x. *)
let sum_step t =
  compose ~name:(Printf.sprintf "sum_step[mf%d]" t) ~num_inputs:(2 * t)
    [ { prog = Front.add_kernel t; args = app (args 0 t) (args t t) } ]
    ~outputs:(Array.to_list (outs 0 t))

(* Named chains for [fpan_tool fuse --dump] and the tests. *)
let chains : (string * (int -> Ir.t)) list =
  [
    ("add", Front.add_kernel);
    ("sub", Front.sub_kernel);
    ("mul", Front.mul_kernel);
    ("axpy", axpy);
    ("madd", madd);
    ("dot_step", dot_step);
    ("sum_step", sum_step);
  ]

let chain name t =
  match List.assoc_opt name chains with
  | Some f -> f t
  | None ->
      invalid_arg
        (Printf.sprintf "Fpan_ir.Fuse.chain: unknown chain %S (have: %s)" name
           (String.concat ", " (List.map fst chains)))
