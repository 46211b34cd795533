(* Exhaustive small-width sweeps over constraint circuits.

   A sweep takes a [spec] — a network or fused chain plus an operand
   space shape — lowers the program to a {!Circuit}, enumerates every
   tuple of the {!Space} on the work-stealing runtime, and checks the
   paper's obligations against exact double arithmetic:

   - per-gate EFT exactness (TwoSum / FastTwoSum: s + e = a + b,
     TwoProd: p + e = a * b) for every constraint of the circuit;
   - nonoverlap ordering of the output expansion at the width
     (the checker's [Overlapping_output], transposed to width w);
   - the scaled relative error bound |reference - sum outputs| <=
     2^-q_w |reference| with q_w the network's [error_exp] rebased
     from precision 53 to the sweep width;
   - bitwise equivalence of the circuit against an independently
     coded scalar reference ([Fpan.Interp.run_rounded] on the source
     network, composed per chain) — two code paths, one semantics.

   Everything on the right-hand side of those comparisons is computed
   in plain double arithmetic.  That is exact — not approximately,
   exactly — because every value a sweep can produce lies on the grid
   [2^min_grid] with magnitude below [2^(max_exp + slack)], and
   [prepare] refuses to run unless that footprint fits in 52 bits.
   So "no violation counted" is a proof at width w, not an
   observation.

   Determinism: the sweep reduces through
   [Runtime.Sched.parallel_reduce] with a grain that never depends on
   the worker count, and every combine is order-independent on the
   fixed tree (sums, max, merge-sorted-keep-K of tuple indices) — the
   certificate is bitwise identical for any [--workers]. *)

module Minifloat = Gpu32.Minifloat

(* ------------------------------------------------------------------ *)
(* Obligations                                                         *)

type obligation =
  | Eft_two_sum
  | Eft_fast_two_sum
  | Eft_two_prod
  | Nonoverlap
  | Error_bound
  | Equivalence

let obligations =
  [| Eft_two_sum; Eft_fast_two_sum; Eft_two_prod; Nonoverlap; Error_bound; Equivalence |]

let n_obligations = Array.length obligations

let obligation_index = function
  | Eft_two_sum -> 0
  | Eft_fast_two_sum -> 1
  | Eft_two_prod -> 2
  | Nonoverlap -> 3
  | Error_bound -> 4
  | Equivalence -> 5

let obligation_name = function
  | Eft_two_sum -> "two_sum"
  | Eft_fast_two_sum -> "fast_two_sum"
  | Eft_two_prod -> "two_prod"
  | Nonoverlap -> "nonoverlap"
  | Error_bound -> "error_bound"
  | Equivalence -> "equivalence"

let obligation_of_eft = function
  | Circuit.Ts -> Eft_two_sum
  | Circuit.Fts -> Eft_fast_two_sum
  | Circuit.Tp -> Eft_two_prod

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)

type kind = Add_network | Mul_network | Chain of string

let kind_name = function
  | Add_network -> "add_network"
  | Mul_network -> "mul_network"
  | Chain _ -> "chain"

type spec = {
  name : string;
  kind : kind;
  net : Fpan.Network.t option;  (* networks only: error_exp + scalar reference *)
  prog : Fpan_ir.Ir.t;
  terms : int;
  width : int;
  window : int;
  gap : int;
  n_slots : int;
  anchored_slot : int;
}

let add_network ?(width = 5) ?(window = 1) ?(gap = 2) (net : Fpan.Network.t) ~terms =
  {
    name = net.Fpan.Network.name;
    kind = Add_network;
    net = Some net;
    prog = Fpan_ir.Front.add_program net terms;
    terms;
    width;
    window;
    gap;
    n_slots = 2;
    anchored_slot = 0;
  }

let mul_network ?(width = 5) ?(window = 1) ?(gap = 2) (net : Fpan.Network.t) ~terms =
  {
    name = net.Fpan.Network.name;
    kind = Mul_network;
    net = Some net;
    prog = Fpan_ir.Front.mul_program net terms;
    terms;
    width;
    window;
    gap;
    n_slots = 2;
    anchored_slot = 0;
  }

(* Operand slots and anchoring per fused chain.  The anchored slot is
   one whose scaling by 2^k scales the whole result by 2^k (jointly
   with the implicit rescaling of the other additive operands covered
   by their exponent windows) — see the equivariance note in space.ml. *)
let chain_slots =
  [
    ("add", (2, 0));
    ("sub", (2, 0));
    ("mul", (2, 0));
    ("axpy", (3, 0));
    ("madd", (3, 0));
    ("dot_step", (3, 1));
    ("sum_step", (2, 0));
  ]

let chain ?(width = 4) ?(window = 1) ?(gap = 1) name ~terms =
  let prog = Fpan_ir.Fuse.chain name terms in
  let n_slots, anchored_slot =
    match List.assoc_opt name chain_slots with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Verify.Sweep.chain: unknown chain %S" name)
  in
  {
    name = prog.Fpan_ir.Ir.name;
    kind = Chain name;
    net = None;
    prog;
    terms;
    width;
    window;
    gap;
    n_slots;
    anchored_slot;
  }

(* ------------------------------------------------------------------ *)
(* Footprint bound                                                     *)

(* Highest multiplicative depth of any value the target computes:
   1 for pure sums, 2 with one product layer. *)
let degree = function
  | Add_network -> 1
  | Mul_network -> 2
  | Chain ("add" | "sub" | "sum_step") -> 1
  | Chain _ -> 2

let ceil_log2 n =
  let rec go b v = if v >= n then b else go (b + 1) (v * 2) in
  go 0 1

(* Bits spanned by the sweep: every value lies on grid 2^(d*min_grid)
   with magnitude < 2^(d*(max_exp+1) + slack), where d is the
   multiplicative depth and slack accommodates sums of all components.
   Under 52, every double add/sub/mul/fma the sweep performs is exact. *)
let footprint_bits spec (space : Space.t) =
  let max_e, min_g = Space.exponent_range space in
  let d = degree spec.kind in
  let slack = ceil_log2 (max 2 (Space.num_inputs space)) + 2 in
  (d * (max_e + 1 - min_g)) + slack

(* ------------------------------------------------------------------ *)
(* Scalar references                                                   *)

(* [Eft.two_prod] with every primitive rounded: pr = rnd(x*y),
   err = rnd(fma(x, y, -pr)); the fma is exact at width w <= 26. *)
let two_prod_r round x y =
  let p = round (x *. y) in
  (p, round (Float.fma x y (-.p)))

(* [Fpan.Networks.mul_expand] with rounded primitives, in the error
   flush order of the generated kernels (ascending — see the deviation
   note on [Front.inline_mul_expand]), so the reference is gate-for-gate
   the circuit's operand order and bitwise comparison is meaningful. *)
let mul_expand_r ~round n (x : float array) (y : float array) =
  let out = ref [] in
  let push v = out := v :: !out in
  let p00, e00 = two_prod_r round x.(0) y.(0) in
  push p00;
  let errs = ref [ [ e00 ] ] in
  for o = 1 to n - 1 do
    let new_errs = ref [] in
    for i = 0 to o do
      let j = o - i in
      if i < n && j < n then
        if o <= n - 2 then begin
          let p, e = two_prod_r round x.(i) y.(j) in
          push p;
          new_errs := e :: !new_errs
        end
        else push (round (x.(i) *. y.(j)))
    done;
    (match !errs with
    | prev :: rest ->
        List.iter push prev;
        errs := rest
    | [] -> ());
    errs := !errs @ [ List.rev !new_errs ]
  done;
  Array.of_list (List.rev !out)

let interleave_arr t (x : float array) (y : float array) =
  Array.init (2 * t) (fun k -> if k mod 2 = 0 then x.(k / 2) else y.(k / 2))

(* The independent scalar path for the equivalence obligation: the
   mutable-wire interpreter run gate-by-gate on the *network* (not the
   IR), composed per chain exactly as the fusion pass composes pieces.
   Shares no lowering code with [Circuit.eval]. *)
let scalar_reference spec ~round : float array -> float array =
  let t = spec.terms in
  let sub buf lo = Array.sub buf lo t in
  match spec.kind with
  | Add_network ->
      let net = Option.get spec.net in
      fun buf -> Fpan.Interp.run_rounded ~round net (interleave_arr t (sub buf 0) (sub buf t))
  | Mul_network ->
      let net = Option.get spec.net in
      fun buf ->
        Fpan.Interp.run_rounded ~round net (mul_expand_r ~round t (sub buf 0) (sub buf t))
  | Chain name -> (
      let add_net = Fpan.Networks.add t in
      let radd x y = Fpan.Interp.run_rounded ~round add_net (interleave_arr t x y) in
      let rmul =
        lazy
          (let mul_net = Fpan.Networks.mul t in
           fun x y -> Fpan.Interp.run_rounded ~round mul_net (mul_expand_r ~round t x y))
      in
      let rmul x y = (Lazy.force rmul) x y in
      let neg a = Array.map Float.neg a in
      match name with
      | "add" | "sum_step" -> fun buf -> radd (sub buf 0) (sub buf t)
      | "sub" -> fun buf -> radd (sub buf 0) (neg (sub buf t))
      | "mul" -> fun buf -> rmul (sub buf 0) (sub buf t)
      | "dot_step" -> fun buf -> radd (sub buf 0) (rmul (sub buf t) (sub buf (2 * t)))
      | "axpy" -> fun buf -> radd (rmul (sub buf 0) (sub buf t)) (sub buf (2 * t))
      | "madd" -> fun buf -> radd (sub buf (2 * t)) (rmul (sub buf 0) (sub buf t))
      | other -> invalid_arg (Printf.sprintf "Verify.Sweep: no scalar reference for %S" other))

(* ------------------------------------------------------------------ *)
(* Prepared target                                                     *)

type target = {
  spec : spec;
  space : Space.t;
  circuit : Circuit.t;
  footprint : int;
  q_w : int option;  (* scaled error bound exponent, networks only *)
}

(* error_exp is stated at precision 53; each of its k = round(e/53)
   precision factors loses (53 - w) bits at width w. *)
let scaled_error_exp ~width error_exp =
  let k = (error_exp + 26) / 53 in
  error_exp - (k * (53 - width))

(* Worst-case footprint straight from the spec parameters — an upper
   bound on [footprint_bits] of the enumerated space (leading exponents
   span [-window, window], each tail drops at most width + gap - 1
   binades).  Checked *before* enumeration: at large widths the
   expansion lists themselves are astronomically big, so the guard
   must not require building them. *)
let worst_footprint spec =
  let d = degree spec.kind in
  let max_e = max 0 spec.window in
  let min_comp = -spec.window - ((spec.terms - 1) * (spec.width + spec.gap - 1)) in
  let min_grid = min_comp - spec.width + 1 in
  let slack = ceil_log2 (max 2 (spec.n_slots * spec.terms)) + 2 in
  (d * (max_e + 1 - min_grid)) + slack

let refuse spec footprint =
  invalid_arg
    (Printf.sprintf
       "Verify.Sweep.prepare: %s: footprint %d bits > 52 — double checks would stop being \
        exact; reduce width/window/gap"
       spec.name footprint)

let prepare spec =
  let worst = worst_footprint spec in
  if worst > 52 then refuse spec worst;
  let slots =
    Array.init spec.n_slots (fun s ->
        Space.expansions ~width:spec.width ~terms:spec.terms ~gap:spec.gap
          (if s = spec.anchored_slot then Space.Anchored else Space.Windowed spec.window))
  in
  let space = Space.make ~name:spec.name ~width:spec.width slots in
  let footprint = footprint_bits spec space in
  if footprint > 52 then refuse spec footprint;
  let q_w =
    match (spec.kind, spec.net) with
    | (Add_network | Mul_network), Some net ->
        Some (scaled_error_exp ~width:spec.width net.Fpan.Network.error_exp)
    | _ -> None
  in
  { spec; space; circuit = Circuit.of_ir spec.prog; footprint; q_w }

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)

type counts = { checked : int array; violations : int array; skipped : int array }

let zero_counts () =
  {
    checked = Array.make n_obligations 0;
    violations = Array.make n_obligations 0;
    skipped = Array.make n_obligations 0;
  }

let add_counts a b =
  let add2 x y = Array.init n_obligations (fun i -> x.(i) + y.(i)) in
  {
    checked = add2 a.checked b.checked;
    violations = add2 a.violations b.violations;
    skipped = add2 a.skipped b.skipped;
  }

type acc = {
  counts : counts;
  worst : float;  (* max log2 |discarded/reference|; -inf if never seen *)
  fails : (int * obligation) list;  (* ascending tuple index, <= max_cex *)
}

(* Order-independent merge on the fixed reduction tree: counter sums,
   max, and merge-of-sorted keeping the [max_cex] smallest indices —
   the recorded counterexamples are the globally smallest tuple
   indices regardless of how leaves were scheduled. *)
let merge_acc ~max_cex a b =
  let rec merge n xs ys =
    if n = 0 then []
    else
      match (xs, ys) with
      | [], [] -> []
      | x :: xs', [] -> x :: merge (n - 1) xs' []
      | [], y :: ys' -> y :: merge (n - 1) [] ys'
      | x :: xs', y :: ys' ->
          if fst x <= fst y then x :: merge (n - 1) xs' ys else y :: merge (n - 1) xs ys'
  in
  {
    counts = add_counts a.counts b.counts;
    worst = Float.max a.worst b.worst;
    fails = merge max_cex a.fails b.fails;
  }

let sum_range (buf : float array) lo len =
  let s = ref 0.0 in
  for i = lo to lo + len - 1 do
    s := !s +. buf.(i)
  done;
  !s

(* The exact double reference value of a network target (None for
   chains, whose obligation set has no scalar bound). *)
let reference_value spec (buf : float array) =
  match spec.kind with
  | Add_network -> sum_range buf 0 (2 * spec.terms)
  | Mul_network -> sum_range buf 0 spec.terms *. sum_range buf spec.terms spec.terms
  | Chain _ -> 0.0

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Evaluate one tuple's obligations; count into [counts]; return the
   first violated obligation, if any. *)
let check_tuple tgt ~round ~representable ~scalar_ref ~regs ~buf counts worst =
  let spec = tgt.spec in
  let first = ref None in
  let note ob verdict =
    let i = obligation_index ob in
    match (verdict : Circuit.verdict) with
    | Circuit.Holds -> counts.checked.(i) <- counts.checked.(i) + 1
    | Circuit.Skipped -> counts.skipped.(i) <- counts.skipped.(i) + 1
    | Circuit.Violated ->
        counts.checked.(i) <- counts.checked.(i) + 1;
        counts.violations.(i) <- counts.violations.(i) + 1;
        if !first = None then first := Some ob
  in
  Circuit.eval tgt.circuit ~round ~regs buf;
  Array.iter
    (fun (k : Circuit.eft) ->
      note (obligation_of_eft k.Circuit.kind) (Circuit.check_eft ~regs ~representable k))
    tgt.circuit.Circuit.efts;
  let outs = Circuit.outputs tgt.circuit ~regs in
  let outs_finite = Array.for_all Float.is_finite outs in
  note Nonoverlap
    (if not outs_finite then Circuit.Skipped
     else if Minifloat.is_nonoverlapping_seq_p spec.width outs then Circuit.Holds
     else Circuit.Violated);
  (match tgt.q_w with
  | None -> ()
  | Some q ->
      if not outs_finite then note Error_bound Circuit.Skipped
      else begin
        let reference = reference_value spec buf in
        let discarded = reference -. Array.fold_left ( +. ) 0.0 outs in
        note Error_bound
          (if Float.abs discarded <= Float.ldexp (Float.abs reference) (-q) then Circuit.Holds
           else Circuit.Violated);
        if discarded <> 0.0 && reference <> 0.0 then begin
          let e = Float.log2 (Float.abs discarded) -. Float.log2 (Float.abs reference) in
          if e > !worst then worst := e
        end
      end);
  let sc = scalar_ref buf in
  note Equivalence
    (if Array.length sc = Array.length outs && Array.for_all2 bits_eq sc outs then Circuit.Holds
     else Circuit.Violated);
  !first

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type failure = {
  index : int;
  obligation : obligation;
  operands : float array array;
  outputs : float array;
  shrunk : float array array;
  shrunk_terms : int;
}

type result = {
  spec : spec;
  tuples : int;
  circuit_ops : int;
  constraints : int;
  footprint : int;
  error_bound_exp : int option;
  counts : counts;
  worst_err_log2 : float;
  failures : failure list;
}

let passed r = Array.for_all (fun v -> v = 0) r.counts.violations

(* Does [ops] (a candidate counterexample, possibly outside the
   enumerated space) still violate [ob]?  The shrinker's [keep]. *)
let violates (tgt : target) ~round ~representable ~scalar_ref ~regs ~buf ob
    (ops : float array array) =
  Space.valid_operands ~width:tgt.spec.width ops
  &&
  let n = ref 0 in
  Array.iter
    (fun comps ->
      Array.blit comps 0 buf !n (Array.length comps);
      n := !n + Array.length comps)
    ops;
  let counts = zero_counts () in
  let worst = ref Float.neg_infinity in
  ignore (check_tuple tgt ~round ~representable ~scalar_ref ~regs ~buf counts worst);
  counts.violations.(obligation_index ob) > 0

let run ?(grain = 4096) ?(max_cex = 5) ~workers spec =
  let tgt = prepare spec in
  let round = Minifloat.round_p spec.width in
  let representable = Minifloat.is_representable_p spec.width in
  let total = tgt.space.Space.total in
  let leaf lo hi =
    let regs = Circuit.make_regs tgt.circuit in
    let buf = Array.make (Space.num_inputs tgt.space) 0.0 in
    let scalar_ref = scalar_reference spec ~round in
    let counts = zero_counts () in
    let worst = ref Float.neg_infinity in
    let fails = ref [] in
    let n_fails = ref 0 in
    for idx = lo to hi - 1 do
      Space.fill_inputs tgt.space idx buf;
      match check_tuple tgt ~round ~representable ~scalar_ref ~regs ~buf counts worst with
      | Some ob when !n_fails < max_cex ->
          fails := (idx, ob) :: !fails;
          incr n_fails
      | _ -> ()
    done;
    { counts; worst = !worst; fails = List.rev !fails }
  in
  let acc =
    Runtime.Sched.with_sched ~workers (fun rt ->
        Runtime.Sched.parallel_reduce rt ~grain ~lo:0 ~hi:total ~leaf (merge_acc ~max_cex))
  in
  (* Decode and shrink the recorded counterexamples after the sweep —
     never in the hot loop.  [operands] aliases the slot tables, so
     deep-copy before handing them to the in-place shrinker. *)
  let regs = Circuit.make_regs tgt.circuit in
  let buf = Array.make (Space.num_inputs tgt.space) 0.0 in
  let scalar_ref = scalar_reference spec ~round in
  let failures =
    List.map
      (fun (idx, ob) ->
        let operands = Array.map Array.copy (Space.operands tgt.space idx) in
        Space.fill_inputs tgt.space idx buf;
        Circuit.eval tgt.circuit ~round ~regs buf;
        let outputs = Circuit.outputs tgt.circuit ~regs in
        let shrunk =
          Check.Shrink.shrink ~canon:round
            ~keep:(violates tgt ~round ~representable ~scalar_ref ~regs ~buf ob)
            (Array.map Array.copy operands)
        in
        {
          index = idx;
          obligation = ob;
          operands;
          outputs;
          shrunk;
          shrunk_terms = Check.Shrink.nonzero_terms shrunk;
        })
      acc.fails
  in
  {
    spec;
    tuples = total;
    circuit_ops = Circuit.size tgt.circuit;
    constraints = Circuit.n_efts tgt.circuit;
    footprint = tgt.footprint;
    error_bound_exp = tgt.q_w;
    counts = acc.counts;
    worst_err_log2 = acc.worst;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* Gate-level sweep: every ordered pair of a full reduced format        *)

type gate_counts = { g_checked : int; g_violations : int; g_skipped : int }

type gate_result = {
  fmt : Minifloat.fmt;
  values : int;
  pairs : int;
  two_sum : gate_counts;
  fast_two_sum : gate_counts;
  two_prod : gate_counts;
}

let gate_passed g =
  g.two_sum.g_violations = 0 && g.fast_two_sum.g_violations = 0 && g.two_prod.g_violations = 0

(* 3 kinds x (checked, violations, skipped), summed across leaves. *)
let gate_level ?(grain = 8192) ~workers fmt =
  let vals = Minifloat.all_finite fmt in
  let n = Array.length vals in
  let round = Minifloat.round fmt in
  let repr = Minifloat.is_representable fmt in
  let leaf lo hi =
    let c = Array.make 9 0 in
    let note k (v : Circuit.verdict) =
      match v with
      | Circuit.Holds -> c.((k * 3) + 0) <- c.((k * 3) + 0) + 1
      | Circuit.Violated ->
          c.((k * 3) + 0) <- c.((k * 3) + 0) + 1;
          c.((k * 3) + 1) <- c.((k * 3) + 1) + 1
      | Circuit.Skipped -> c.((k * 3) + 2) <- c.((k * 3) + 2) + 1
    in
    for k = lo to hi - 1 do
      let a = vals.(k / n) and b = vals.(k mod n) in
      (* 6-op TwoSum *)
      let s = round (a +. b) in
      let x_eff = round (s -. b) in
      let y_eff = round (s -. x_eff) in
      let dx = round (a -. x_eff) in
      let dy = round (b -. y_eff) in
      let e = round (dx +. dy) in
      note 0
        (if not (Float.is_finite s && Float.is_finite e) then Circuit.Skipped
         else if s +. e = a +. b then Circuit.Holds
         else Circuit.Violated);
      (* 3-op FastTwoSum, checked only where its |a| >= |b| exponent
         precondition holds (the network compiler's obligation, audited
         at p=53 by Interp.run_audited) *)
      let pre = b = 0.0 || (a <> 0.0 && Eft.exponent a >= Eft.exponent b) in
      if not pre then note 1 Circuit.Skipped
      else begin
        let s = round (a +. b) in
        let y_eff = round (s -. a) in
        let e = round (b -. y_eff) in
        note 1
          (if not (Float.is_finite s && Float.is_finite e) then Circuit.Skipped
           else if s +. e = a +. b then Circuit.Holds
           else Circuit.Violated)
      end;
      (* fma TwoProd; the a * b product is exact in double (2p <= 52) *)
      let p = round (a *. b) in
      if not (Float.is_finite p) then note 2 Circuit.Skipped
      else begin
        let e = round (Float.fma a b (-.p)) in
        let true_err = Float.fma a b (-.p) in
        note 2
          (if not (repr true_err) then Circuit.Skipped
           else if not (Float.is_finite e) then Circuit.Skipped
           else if p +. e = a *. b then Circuit.Holds
           else Circuit.Violated)
      end
    done;
    c
  in
  let c =
    Runtime.Sched.with_sched ~workers (fun rt ->
        Runtime.Sched.parallel_reduce rt ~grain ~lo:0 ~hi:(n * n) ~leaf (fun x y ->
            Array.init 9 (fun i -> x.(i) + y.(i))))
  in
  let counts k = { g_checked = c.((k * 3) + 0); g_violations = c.((k * 3) + 1); g_skipped = c.((k * 3) + 2) } in
  {
    fmt;
    values = n;
    pairs = n * n;
    two_sum = counts 0;
    fast_two_sum = counts 1;
    two_prod = counts 2;
  }

(* ------------------------------------------------------------------ *)
(* Certificate JSON (schema fpan-verify/1)                              *)

(* No worker count, no timestamps, no timings: certificates from
   different worker counts must be byte-identical (CI diffs them). *)

let hex v = Obs.Json_out.Str (Printf.sprintf "%h" v)
let hex_row comps = Obs.Json_out.List (Array.to_list (Array.map hex comps))
let hex_rows ops = Obs.Json_out.List (Array.to_list (Array.map hex_row ops))

let counts_json counts =
  Obs.Json_out.List
    (Array.to_list
       (Array.map
          (fun ob ->
            let i = obligation_index ob in
            Obs.Json_out.Obj
              [
                ("obligation", Obs.Json_out.Str (obligation_name ob));
                ("checked", Obs.Json_out.Num (float_of_int counts.checked.(i)));
                ("violations", Obs.Json_out.Num (float_of_int counts.violations.(i)));
                ("skipped", Obs.Json_out.Num (float_of_int counts.skipped.(i)));
              ])
          obligations))

let failure_json f =
  Obs.Json_out.Obj
    [
      ("index", Obs.Json_out.Num (float_of_int f.index));
      ("obligation", Obs.Json_out.Str (obligation_name f.obligation));
      ("operands", hex_rows f.operands);
      ("outputs", hex_row f.outputs);
      ("shrunk", hex_rows f.shrunk);
      ("shrunk_terms", Obs.Json_out.Num (float_of_int f.shrunk_terms));
    ]

let result_json r =
  let open Obs.Json_out in
  Obj
    [
      ("name", Str r.spec.name);
      ("kind", Str (kind_name r.spec.kind));
      ("width", Num (float_of_int r.spec.width));
      ("window", Num (float_of_int r.spec.window));
      ("gap", Num (float_of_int r.spec.gap));
      ("terms", Num (float_of_int r.spec.terms));
      ("slots", Num (float_of_int r.spec.n_slots));
      ("tuples", Num (float_of_int r.tuples));
      ("circuit_ops", Num (float_of_int r.circuit_ops));
      ("constraints", Num (float_of_int r.constraints));
      ("footprint_bits", Num (float_of_int r.footprint));
      ( "error_bound_exp",
        match r.error_bound_exp with None -> Null | Some q -> Num (float_of_int q) );
      ("obligations", counts_json r.counts);
      ("worst_error_log2", Num r.worst_err_log2);  (* -inf -> null *)
      ("failures", List (List.map failure_json r.failures));
      ("passed", Bool (passed r));
    ]

let gate_counts_json op (g : gate_counts) =
  Obs.Json_out.Obj
    [
      ("op", Obs.Json_out.Str op);
      ("checked", Obs.Json_out.Num (float_of_int g.g_checked));
      ("violations", Obs.Json_out.Num (float_of_int g.g_violations));
      ("skipped", Obs.Json_out.Num (float_of_int g.g_skipped));
    ]

let gate_json g =
  let open Obs.Json_out in
  Obj
    [
      ("precision", Num (float_of_int g.fmt.Minifloat.p));
      ("emin", Num (float_of_int g.fmt.Minifloat.emin));
      ("emax", Num (float_of_int g.fmt.Minifloat.emax));
      ("values", Num (float_of_int g.values));
      ("pairs", Num (float_of_int g.pairs));
      ( "ops",
        List
          [
            gate_counts_json "two_sum" g.two_sum;
            gate_counts_json "fast_two_sum" g.fast_two_sum;
            gate_counts_json "two_prod" g.two_prod;
          ] );
      ("passed", Bool (gate_passed g));
    ]

let certificate ?gate (results : result list) =
  let open Obs.Json_out in
  let all_passed =
    List.for_all passed results
    && match gate with None -> true | Some g -> gate_passed g
  in
  Obj
    [
      ("schema", Str "fpan-verify/1");
      ("gate_level", match gate with None -> Null | Some g -> gate_json g);
      ("sweeps", List (List.map result_json results));
      ("passed", Bool all_passed);
    ]
