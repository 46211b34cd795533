(* Staging by codegen: emit IR programs as straight-line OCaml float
   code, and assemble lib/multifloat/batch.ml (planar loops) and
   lib/multifloat/fpan_scalar.ml (scalar record kernels) from them.

   [emit_program] is the per-program emitter; it reproduces the naming
   scheme of the hand-expanded kernels (one monotone counter per
   program, letter by gate kind: TwoSum -> s/t/e, FastTwoSum -> s/e,
   TwoProd -> p/e, Mul -> m, Add -> a, Neg -> n, Const -> c) so the
   generated file diffs cleanly against history.  [batch_ml] and
   [scalar_ml] render the whole files: fixed templates for the module
   plumbing, emitted programs for every kernel body.  The drift rules
   in lib/multifloat/dune diff both committed files against a fresh
   run of gen/gen_batch.exe on every `dune runtest`. *)

let spf = Printf.sprintf
let bpf = Printf.bprintf

(* The two target languages differ only in how a value is bound and how
   the operators are spelled; the gate expansions below are shared, so
   the OCaml and C kernels perform the same operations on the same
   operands in the same order. *)
type syntax = {
  bind : string -> string -> string;  (** [bind name expr]: one line *)
  add : string;
  sub : string;
  mul : string;
  neg : string;  (** prefix negation *)
  fma_neg : string -> string -> string -> string;  (** [a * b - c], rounded once *)
}

let ml =
  {
    bind = (fun n e -> spf "let %s = %s in" n e);
    add = "+.";
    sub = "-.";
    mul = "*.";
    neg = "-. ";
    fma_neg = (fun a b c -> spf "Float.fma %s %s (-. %s)" a b c);
  }

let c =
  {
    bind = (fun n e -> spf "const double %s = %s;" n e);
    add = "+";
    sub = "-";
    mul = "*";
    neg = "-";
    fma_neg = (fun a b c -> spf "fma(%s, %s, -%s)" a b c);
  }

(* [~dekker:true] emits every TwoProd as the Veltkamp-Dekker split
   instead of the FMA form, operation for operation
   [Eft.two_prod_dekker] (split temporaries take the letters k/h/l;
   2^27 + 1 is Veltkamp's splitting constant for p = 53). *)
let emit_program ?(syn = ml) ?(dekker = false) buf ~indent ~prefix (p : Ir.t)
    ~(args : string array) : string array =
  if Array.length args <> p.Ir.num_inputs then
    invalid_arg
      (spf "Fpan_ir.Codegen.emit_program: %s wants %d args, got %d" p.Ir.name p.Ir.num_inputs
         (Array.length args));
  let names = Array.make (Array.length p.Ir.gates) [||] in
  let k = ref 0 in
  let fresh letter =
    incr k;
    spf "%s%s%d" prefix letter !k
  in
  let v = function Ir.In i -> args.(i) | Ir.Res (g, port) -> names.(g).(port) in
  let line n e =
    Buffer.add_string buf indent;
    Buffer.add_string buf (syn.bind n e);
    Buffer.add_char buf '\n'
  in
  let ( +! ) a b = spf "%s %s %s" a syn.add b
  and ( -! ) a b = spf "%s %s %s" a syn.sub b
  and ( *! ) a b = spf "%s %s %s" a syn.mul b
  and par e = "(" ^ e ^ ")" in
  Array.iteri
    (fun i g ->
      match g with
      | Ir.Two_sum (a, b) ->
          let a = v a and b = v b in
          let s = fresh "s" in
          line s (a +! b);
          let t = fresh "t" in
          line t (s -! b);
          let e = fresh "e" in
          line e (par (a -! t) +! par (b -! par (s -! t)));
          names.(i) <- [| s; e |]
      | Ir.Fast_two_sum (a, b) ->
          let a = v a and b = v b in
          let s = fresh "s" in
          line s (a +! b);
          let e = fresh "e" in
          line e (b -! par (s -! a));
          names.(i) <- [| s; e |]
      | Ir.Two_prod (a, b) when dekker ->
          let a = v a and b = v b in
          let pr = fresh "p" in
          line pr (a *! b);
          let split x =
            let k = fresh "k" in
            line k (spf "%h" 134217729.0 *! x);
            let h = fresh "h" in
            line h (k -! par (k -! x));
            let l = fresh "l" in
            line l (x -! h);
            (h, l)
          in
          let ah, al = split a in
          let bh, bl = split b in
          let e = fresh "e" in
          line e
            (par (par (par (par (ah *! bh) -! pr) +! par (ah *! bl)) +! par (al *! bh))
            +! par (al *! bl));
          names.(i) <- [| pr; e |]
      | Ir.Two_prod (a, b) ->
          let a = v a and b = v b in
          let pr = fresh "p" in
          line pr (a *! b);
          let e = fresh "e" in
          line e (syn.fma_neg a b pr);
          names.(i) <- [| pr; e |]
      | Ir.Add (a, b) ->
          let n = fresh "a" in
          line n (v a +! v b);
          names.(i) <- [| n |]
      | Ir.Mul (a, b) ->
          let n = fresh "m" in
          line n (v a *! v b);
          names.(i) <- [| n |]
      | Ir.Neg a ->
          let n = fresh "n" in
          line n (syn.neg ^ v a);
          names.(i) <- [| n |]
      | Ir.Const c ->
          let n = fresh "c" in
          line n (spf "%h" c);
          names.(i) <- [| n |])
    p.Ir.gates;
  Array.map v p.Ir.outputs

(* --- batch.ml assembly ----------------------------------------------- *)

type tier = { t : int; mf : string }

(* The native-double row ([Mf1v]; its element is a bare float, so no
   [Mf1] module is named): its OCaml loops are a fixed template (see
   [mf1v]), its C loops come from the same templates as the expansion
   tiers, over one-gate programs. *)
let tier1 = { t = 1; mf = "Mf1" }

let tiers = [ { t = 2; mf = "Mf2" }; { t = 3; mf = "Mf3" }; { t = 4; mf = "Mf4" } ]

(* Elements per C block: the unit an elementwise C loop stores or
   declines (NaN fallback), and the staging width of the folds. *)
let block = 64

(* Rows [dot_rows] folds side by side, one per vector lane: W in
   DESIGN.md section 10, chosen by the sweep in EXPERIMENTS.md. *)
let lanes = 8

let one_gate name gate =
  let b = Ir.B.create ~num_inputs:2 in
  let g = Ir.B.push b (gate (Ir.In 0) (Ir.In 1)) in
  Ir.B.finish b ~name ~outputs:[| Ir.Res (g, 0) |]

let add_prog t = if t = 1 then one_gate "add1" (fun a b -> Ir.Add (a, b)) else Front.add_kernel t
let mul_prog t = if t = 1 then one_gate "mul1" (fun a b -> Ir.Mul (a, b)) else Front.mul_kernel t

let seq t f = List.init t f
let cat sep t f = String.concat sep (seq t f)

(* "let a0 = x.c0 and a1 = x.c1 and b0 = y.c0 ... in" *)
let hoist tr srcs =
  "let "
  ^ String.concat " and "
      (List.concat_map (fun (l, r) -> seq tr.t (fun k -> spf "%s%d = %s.c%d" l k r k)) srcs)
  ^ " in"

let loads buf tr ~local ~plane ~idx ~neg =
  for k = 0 to tr.t - 1 do
    if neg then bpf buf "      let %s%d = -.(F.unsafe_get %s%d %s) in\n" local k plane k idx
    else bpf buf "      let %s%d = F.unsafe_get %s%d %s in\n" local k plane k idx
  done

let names local tr = Array.init tr.t (fun k -> spf "%s%d" local k)
let acc_names tr = Array.init tr.t (fun k -> spf "!acc%d" k)

(* alpha components hoist: "let al = Mf2.components alpha in let al0 = ..." *)
let scalar_hoist buf tr ~arr ~local ~expr =
  bpf buf "    let %s = %s.components %s in\n" arr tr.mf expr;
  bpf buf "    let %s in\n" (cat " and " tr.t (fun k -> spf "%s%d = %s.(%d)" local k arr k))

(* a fold's accumulator refs, started from [init]'s components *)
let acc_init buf tr =
  bpf buf "    let ic = %s.components init in\n" tr.mf;
  bpf buf "    %s\n" (cat " " tr.t (fun k -> spf "let acc%d = ref ic.(%d) in" k k))

let stores buf tr ~plane ~idx (outs : string array) =
  for k = 0 to tr.t - 1 do
    bpf buf "      F.unsafe_set %s%d %s %s;\n" plane k idx outs.(k)
  done

let acc_stores buf tr (outs : string array) =
  for k = 0 to tr.t - 1 do
    bpf buf "      acc%d := %s;\n" k outs.(k)
  done

let of_accs tr = spf "%s.of_components [| %s |]" tr.mf (cat "; " tr.t (fun k -> spf "!acc%d" k))

(* add / sub / mul: a range loop ([_span], what the NaN fallback
   recomputes) and the checked whole-vector [_ml] loop over it *)
let emit_ew buf tr ~name ~prog ~neg_y =
  bpf buf "  let %s_span ~dst a b lo hi =\n" name;
  bpf buf "    %s\n" (hoist tr [ ("a", "a"); ("b", "b"); ("d", "dst") ]);
  bpf buf "    for i = lo to hi - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"i" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"i" ~neg:neg_y;
  let outs =
    emit_program buf ~indent:"      " ~prefix:"v" prog
      ~args:(Array.append (names "x" tr) (names "y" tr))
  in
  stores buf tr ~plane:"d" ~idx:"i" outs;
  bpf buf "      ()\n    done\n\n";
  bpf buf "  let %s_ml ~dst a b =\n" name;
  bpf buf "    check2 \"Batch.%s\" a b;\n" name;
  bpf buf "    check2 \"Batch.%s\" a dst;\n" name;
  bpf buf "    %s_span ~dst a b 0 a.n\n" name

let emit_axpy buf tr =
  bpf buf "  let axpy_ml ~lo ~hi ~alpha ~x ~y =\n";
  bpf buf "    check2 \"Batch.axpy\" x y;\n";
  bpf buf "    if lo < 0 || hi > x.n || lo > hi then invalid_arg \"Batch.axpy\";\n";
  scalar_hoist buf tr ~arr:"al" ~local:"al" ~expr:"alpha";
  bpf buf "    %s\n" (hoist tr [ ("a", "x"); ("b", "y") ]);
  bpf buf "    for i = lo to hi - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"i" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"i" ~neg:false;
  let p =
    emit_program buf ~indent:"      " ~prefix:"p" (Front.mul_kernel tr.t)
      ~args:(Array.append (names "al" tr) (names "x" tr))
  in
  let q =
    emit_program buf ~indent:"      " ~prefix:"q" (Front.add_kernel tr.t)
      ~args:(Array.append p (names "y" tr))
  in
  stores buf tr ~plane:"b" ~idx:"i" q;
  bpf buf "      ()\n    done\n"

let emit_madd buf tr =
  bpf buf "  let madd_ml ~alpha ~x ~xoff ~y ~yoff ~len =\n";
  bpf buf "    check_range \"Batch.madd\" x ~off:xoff ~len;\n";
  bpf buf "    check_range \"Batch.madd\" y ~off:yoff ~len;\n";
  scalar_hoist buf tr ~arr:"al" ~local:"al" ~expr:"alpha";
  bpf buf "    %s\n" (hoist tr [ ("a", "x"); ("b", "y") ]);
  bpf buf "    for i = 0 to len - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"(xoff + i)" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"(yoff + i)" ~neg:false;
  let p =
    emit_program buf ~indent:"      " ~prefix:"p" (Front.mul_kernel tr.t)
      ~args:(Array.append (names "al" tr) (names "x" tr))
  in
  let q =
    emit_program buf ~indent:"      " ~prefix:"q" (Front.add_kernel tr.t)
      ~args:(Array.append (names "y" tr) p)
  in
  stores buf tr ~plane:"b" ~idx:"(yoff + i)" q;
  bpf buf "      ()\n    done\n"

let emit_dot buf tr =
  bpf buf "  let dot_ml ~init ~x ~xoff ~y ~yoff ~len =\n";
  bpf buf "    check_range \"Batch.dot\" x ~off:xoff ~len;\n";
  bpf buf "    check_range \"Batch.dot\" y ~off:yoff ~len;\n";
  acc_init buf tr;
  bpf buf "    %s\n" (hoist tr [ ("a", "x"); ("b", "y") ]);
  bpf buf "    for i = 0 to len - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"(xoff + i)" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"(yoff + i)" ~neg:false;
  let p =
    emit_program buf ~indent:"      " ~prefix:"p" (Front.mul_kernel tr.t)
      ~args:(Array.append (names "x" tr) (names "y" tr))
  in
  let q =
    emit_program buf ~indent:"      " ~prefix:"q" (Front.add_kernel tr.t)
      ~args:(Array.append (acc_names tr) p)
  in
  acc_stores buf tr q;
  bpf buf "      ()\n    done;\n";
  bpf buf "    %s\n" (of_accs tr)

let emit_sum buf tr =
  bpf buf "  let sum_ml ~init ~x ~xoff ~len =\n";
  bpf buf "    check_range \"Batch.sum\" x ~off:xoff ~len;\n";
  acc_init buf tr;
  bpf buf "    %s\n" (hoist tr [ ("a", "x") ]);
  bpf buf "    for i = 0 to len - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"(xoff + i)" ~neg:false;
  let outs =
    emit_program buf ~indent:"      " ~prefix:"v" (Front.add_kernel tr.t)
      ~args:(Array.append (acc_names tr) (names "x" tr))
  in
  acc_stores buf tr outs;
  bpf buf "      ()\n    done;\n";
  bpf buf "    %s\n" (of_accs tr)

(* the per-row [dot_ml] loop the lane kernel is held to *)
let emit_dot_rows buf tr =
  bpf buf "  let dot_rows_ml ~a ~aoff ~ld ~x ~xoff ~len ~dst ~lo ~hi =\n";
  bpf buf "    check_rows \"Batch.dot_rows\" ~a_n:a.n ~aoff ~ld ~x_n:x.n ~xoff ~len ~dst_n:dst.n ~lo ~hi;\n";
  bpf buf "    for i = lo to hi - 1 do\n";
  bpf buf "      set dst i (dot_ml ~init:%s.zero ~x:a ~xoff:(aoff + (i * ld)) ~y:x ~yoff:xoff ~len)\n"
    tr.mf;
  bpf buf "    done\n"

(* --- the C kernels' OCaml side --------------------------------------- *)

(* Every C loop of a tier: its name, its OCaml type and its value
   parameters in order.  The externals and the C definitions are both
   rendered from this table, so they cannot disagree on arity. *)
let c_ops =
  let ew = ("t -> t -> t -> int -> int -> int", [ "dst"; "a"; "b"; "lo"; "hi" ]) in
  [ ("add", ew); ("sub", ew); ("mul", ew);
    ("axpy", ("float array -> t -> t -> int -> int -> int", [ "al"; "x"; "y"; "lo"; "hi" ]));
    ( "madd",
      ( "float array -> t -> int -> t -> int -> int -> int -> int",
        [ "al"; "x"; "xoff"; "y"; "yoff"; "lo"; "hi" ] ) );
    ( "dot",
      ( "float array -> t -> int -> t -> int -> int -> int",
        [ "acc"; "x"; "xoff"; "y"; "yoff"; "len" ] ) );
    ( "dot_rows",
      ( "t -> int -> int -> t -> int -> int -> t -> int -> int -> int",
        [ "a"; "aoff"; "ld"; "x"; "xoff"; "len"; "dst"; "lo"; "hi" ] ) );
    ("sum", ("float array -> t -> int -> int -> int", [ "acc"; "x"; "xoff"; "len" ])) ]

let stub tr op = spf "mf_batch%d_%s" tr.t op

(* The bytecode interpreter passes a primitive more than 5 arguments as
   an argv array, so wider stubs get a separate bytecode entry point. *)
let max_direct_args = 5

(* The component views a wrapper needs, spelled per tier. *)
let comps tr e = if tr.t = 1 then spf "[| %s |]" e else spf "%s.components %s" tr.mf e
let fresh_comps tr e = if tr.t = 1 then spf "[| %s |]" e else spf "Array.copy (%s.components %s)" tr.mf e
let of_comps tr a = if tr.t = 1 then spf "%s.(0)" a else spf "%s.of_components %s" tr.mf a

(* The elementwise wrapper loop: run the C loop from [!i]; it returns [hi]
   when done, else the start of a block holding a NaN output, which the
   OCaml loop recomputes before the C loop resumes after it. *)
let drive buf ~indent ~lo ~hi ~call ~ml =
  bpf buf "%slet i = ref %s in\n" indent lo;
  bpf buf "%swhile !i < %s do\n" indent hi;
  bpf buf "%s  let j = %s in\n" indent call;
  bpf buf "%s  let k = min %s (j + block) in\n" indent hi;
  bpf buf "%s  if j < %s then %s;\n" indent hi ml;
  bpf buf "%s  i := k\n" indent;
  bpf buf "%sdone\n" indent

let emit_wrappers buf tr =
  List.iter
    (fun (op, (ty, params)) ->
      if List.length params > max_direct_args then
        bpf buf "  external %s_c : %s = \"%s_byte\" \"%s\" [@@noalloc]\n" op ty (stub tr op)
          (stub tr op)
      else bpf buf "  external %s_c : %s = \"%s\" [@@noalloc]\n" op ty (stub tr op))
    c_ops;
  List.iter
    (fun op ->
      bpf buf "\n  let %s ~dst a b =\n" op;
      bpf buf "    check2 \"Batch.%s\" a b;\n" op;
      bpf buf "    check2 \"Batch.%s\" a dst;\n" op;
      drive buf ~indent:"    " ~lo:"0" ~hi:"a.n" ~call:(spf "%s_c dst a b !i a.n" op)
        ~ml:(spf "%s_span ~dst a b j k" op))
    [ "add"; "sub"; "mul" ];
  bpf buf "\n  let axpy ~lo ~hi ~alpha ~x ~y =\n";
  bpf buf "    check2 \"Batch.axpy\" x y;\n";
  bpf buf "    if lo < 0 || hi > x.n || lo > hi then invalid_arg \"Batch.axpy\";\n";
  bpf buf "    let al = %s in\n" (comps tr "alpha");
  drive buf ~indent:"    " ~lo:"lo" ~hi:"hi" ~call:"axpy_c al x y !i hi"
    ~ml:"axpy_ml ~lo:j ~hi:k ~alpha ~x ~y";
  bpf buf "\n  let madd ~alpha ~x ~xoff ~y ~yoff ~len =\n";
  bpf buf "    check_range \"Batch.madd\" x ~off:xoff ~len;\n";
  bpf buf "    check_range \"Batch.madd\" y ~off:yoff ~len;\n";
  bpf buf "    (* one vector at two offsets: element i may read what an\n";
  bpf buf "       earlier element wrote, which a C block does not see *)\n";
  bpf buf "    if x == y && xoff <> yoff then madd_ml ~alpha ~x ~xoff ~y ~yoff ~len\n";
  bpf buf "    else begin\n";
  bpf buf "      let al = %s in\n" (comps tr "alpha");
  drive buf ~indent:"      " ~lo:"0" ~hi:"len" ~call:"madd_c al x xoff y yoff !i len"
    ~ml:"madd_ml ~alpha ~x ~xoff:(xoff + j) ~y ~yoff:(yoff + j) ~len:(k - j)";
  bpf buf "    end\n";
  (* folds: the C loop stops before the first step whose accumulator
     holds a NaN and returns the steps it took; the OCaml loop resumes
     there from the accumulator it left *)
  bpf buf "\n  let dot ~init ~x ~xoff ~y ~yoff ~len =\n";
  bpf buf "    check_range \"Batch.dot\" x ~off:xoff ~len;\n";
  bpf buf "    check_range \"Batch.dot\" y ~off:yoff ~len;\n";
  bpf buf "    let acc = %s in\n" (fresh_comps tr "init");
  bpf buf "    let j = dot_c acc x xoff y yoff len in\n";
  bpf buf "    if j = len then %s\n" (of_comps tr "acc");
  bpf buf "    else dot_ml ~init:(%s) ~x ~xoff:(xoff + j) ~y ~yoff:(yoff + j) ~len:(len - j)\n"
    (of_comps tr "acc");
  (* rows W at a time in the lane kernel; it returns [hi], or the first
     row whose lane held a NaN or an infinity, which [dot] recomputes
     before the lane kernel resumes after it.  A [dst] that is also an
     operand sees each row's store before the next row reads it, so it
     runs row by row. *)
  bpf buf "\n  let dot_rows ~a ~aoff ~ld ~x ~xoff ~len ~dst ~lo ~hi =\n";
  bpf buf "    check_rows \"Batch.dot_rows\" ~a_n:a.n ~aoff ~ld ~x_n:x.n ~xoff ~len ~dst_n:dst.n ~lo ~hi;\n";
  bpf buf "    let row i = dot ~init:%s ~x:a ~xoff:(aoff + (i * ld)) ~y:x ~yoff:xoff ~len in\n"
    (if tr.t = 1 then "0.0" else tr.mf ^ ".zero");
  bpf buf "    if dst == a || dst == x then\n";
  bpf buf "      for i = lo to hi - 1 do\n        set dst i (row i)\n      done\n";
  bpf buf "    else begin\n";
  bpf buf "      let i = ref lo in\n";
  bpf buf "      while !i < hi do\n";
  bpf buf "        let j = dot_rows_c a aoff ld x xoff len dst !i hi in\n";
  bpf buf "        if j < hi then set dst j (row j);\n";
  bpf buf "        i := j + 1\n";
  bpf buf "      done\n";
  bpf buf "    end\n";
  bpf buf "\n  let sum ~init ~x ~xoff ~len =\n";
  bpf buf "    check_range \"Batch.sum\" x ~off:xoff ~len;\n";
  bpf buf "    let acc = %s in\n" (fresh_comps tr "init");
  bpf buf "    let j = sum_c acc x xoff len in\n";
  bpf buf "    if j = len then %s\n" (of_comps tr "acc");
  bpf buf "    else sum_ml ~init:(%s) ~x ~xoff:(xoff + j) ~len:(len - j)\n" (of_comps tr "acc")

let emit_tier buf tr =
  bpf buf "module %sv = struct\n" tr.mf;
  bpf buf "  type elt = %s.t\n\n" tr.mf;
  bpf buf "  type t = { n : int; %s }\n\n" (cat "; " tr.t (fun k -> spf "c%d : floatarray" k));
  bpf buf "  let terms = %d\n" tr.t;
  bpf buf "  let lanes = lanes\n";
  bpf buf "  let length v = v.n\n\n";
  bpf buf "  let create n = { n; %s }\n" (cat "; " tr.t (fun k -> spf "c%d = F.make n 0.0" k));
  bpf buf "  let copy v = { n = v.n; %s }\n\n" (cat "; " tr.t (fun k -> spf "c%d = F.copy v.c%d" k k));
  bpf buf "  let get v i = %s.of_components [| %s |]\n\n" tr.mf
    (cat "; " tr.t (fun k -> spf "F.get v.c%d i" k));
  bpf buf "  let set v i e =\n";
  bpf buf "    let c = %s.components e in\n" tr.mf;
  bpf buf "    %s\n" (cat " " tr.t (fun k -> spf "F.set v.c%d i c.(%d);" k k));
  bpf buf "    ()\n\n";
  bpf buf "  let of_array es =\n";
  bpf buf "    let v = create (Array.length es) in\n";
  bpf buf "    Array.iteri (fun i e -> set v i e) es;\n";
  bpf buf "    v\n\n";
  bpf buf "  let to_array v = Array.init v.n (get v)\n\n";
  bpf buf "  let of_floats fs =\n";
  bpf buf "    let v = create (Array.length fs) in\n";
  bpf buf "    Array.iteri (fun i f -> F.set v.c0 i f) fs;\n";
  bpf buf "    v\n\n";
  bpf buf "  let to_floats v = Array.init v.n (fun i -> F.get v.c0 i)\n\n";
  bpf buf "  let check2 name a b = if a.n <> b.n then invalid_arg name\n\n";
  bpf buf "  let check_range name v ~off ~len =\n";
  bpf buf "    if off < 0 || len < 0 || off + len > v.n then invalid_arg name\n\n";
  emit_ew buf tr ~name:"add" ~prog:(Front.add_kernel tr.t) ~neg_y:false;
  bpf buf "\n";
  emit_ew buf tr ~name:"sub" ~prog:(Front.add_kernel tr.t) ~neg_y:true;
  bpf buf "\n";
  emit_ew buf tr ~name:"mul" ~prog:(Front.mul_kernel tr.t) ~neg_y:false;
  bpf buf "\n";
  bpf buf "  let map ~dst f src =\n";
  bpf buf "    check2 \"Batch.map\" src dst;\n";
  bpf buf "    for i = 0 to src.n - 1 do\n";
  bpf buf "      set dst i (f (get src i))\n";
  bpf buf "    done\n\n";
  bpf buf "  let map2 ~dst f a b =\n";
  bpf buf "    check2 \"Batch.map2\" a b;\n";
  bpf buf "    check2 \"Batch.map2\" a dst;\n";
  bpf buf "    for i = 0 to a.n - 1 do\n";
  bpf buf "      set dst i (f (get a i) (get b i))\n";
  bpf buf "    done\n\n";
  emit_axpy buf tr;
  bpf buf "\n";
  emit_madd buf tr;
  bpf buf "\n";
  emit_dot buf tr;
  bpf buf "\n";
  emit_sum buf tr;
  bpf buf "\n";
  emit_dot_rows buf tr;
  bpf buf "\n";
  emit_wrappers buf tr;
  bpf buf "end\n"

let header =
  {|(* Planar (structure-of-arrays) MultiFloat vectors: an n-element
   1/2/3/4-term vector is stored as [terms] parallel unboxed
   [floatarray]s, one per expansion component, instead of an OCaml
   array of boxed component records.

   The batched operations run the exact branch-free FPAN wire sequences
   of [Mf2]/[Mf3]/[Mf4] element-wise over the planes: the paper's
   cross-element vectorization (Section 5).  Branch-freedom makes the
   element loop a fixed dataflow, and the planar layout feeds that
   dataflow to SIMD lanes.  Every kernel is staged twice from the same
   IR programs, gate for gate and operand for operand:

   - the C loops of batch_stubs.c, built with IEEE semantics intact (no
     contraction, no fast-math) and dispatched at run time to an
     AVX-512, an AVX2+FMA or a baseline clone ([isa] names the one in
     use).  Every operation of the tiers below runs these loops;
   - the OCaml loops ([_span], [_ml]): straight-line float code with no
     tuple returns and no per-element heap allocation.

   A C compiler may swap the operands of [+] and [*].  That changes
   nothing on numbers, but it can change which NaN payload propagates.
   So an elementwise C loop stores a 64-element block only when none
   of its outputs is a NaN, and a C fold stops before the first step
   whose accumulator is a NaN; the OCaml loop recomputes what the C
   loop declined.  The OCaml loop also runs a [madd] whose source and
   destination are one vector at two offsets.  NaN-free results are
   bitwise equal by IEEE determinism, so batched results equal the
   scalar kernels bit for bit, NaN payloads included -- asserted by
   test/test_batch.ml.

   GENERATED by lib/fpan_ir/gen/gen_batch.ml: Fpan_ir.Front derives an
   IR program gate-for-gate from each Fpan.Networks network, and
   Fpan_ir.Codegen stages the (fused) programs as the straight-line
   kernels below and in batch_stubs.c.  Do not edit this file by hand
   -- edit the generator and run `dune runtest` (whose drift rule diffs
   this file against a fresh regeneration), then `dune promote` to
   accept the new output. *)

module F = Float.Array

|}

(* The part of the header after [block]'s definition. *)
let header_rest =
  {|
(* The SIMD clone the C kernels dispatched to on this CPU:
   "x86-64-v4", "x86-64-v3" or "default" (x86-64 glibc builds), or
   "portable" (one plain build everywhere else). *)
external isa : unit -> string = "mf_batch_isa"

(* The C compiler that built the C kernels, e.g. "gcc 12.2.0". *)
external cc : unit -> string = "mf_batch_cc"

(* [dot_rows]' operands: rows [lo, hi) of [dst], each row of [a]
   ([len] elements from [aoff + i*ld]) and [x] ([len] from [xoff]). *)
let check_rows name ~a_n ~aoff ~ld ~x_n ~xoff ~len ~dst_n ~lo ~hi =
  if lo < 0 || hi < lo || hi > dst_n || len < 0 || ld < 0 || aoff < 0 || xoff < 0
     || xoff + len > x_n
     || (hi > lo && aoff + ((hi - 1) * ld) + len > a_n)
  then invalid_arg name

(** Planar vector operations over one MultiFloat size.  The fold and
    update operations fix the accumulation order of the scalar BLAS
    kernels: [axpy] computes [y.(i) <- add (mul alpha x.(i)) y.(i)],
    [madd] computes [y.(yoff+i) <- add y.(yoff+i) (mul alpha
    x.(xoff+i))], and [dot] folds [acc <- add acc (mul x.(xoff+i)
    y.(yoff+i))] in index order starting from [init].  The fused
    operation [sum] is a staged composition
    of the same wire programs: one pass over the planes, bitwise equal
    to the unfused op-by-op composition. *)
module type V = sig
  type elt
  (** The scalar MultiFloat element type. *)

  type t
  (** A planar vector of [elt]s. *)

  val terms : int

  val lanes : int
  (** Rows {!dot_rows} folds side by side (1: one at a time). *)

  val length : t -> int

  val create : int -> t
  (** Zero-filled planar vector. *)

  val copy : t -> t
  val get : t -> int -> elt
  val set : t -> int -> elt -> unit
  val of_array : elt array -> t
  val to_array : t -> elt array

  val of_floats : float array -> t
  (** Lift doubles: component 0 takes the value, the rest are zero. *)

  val to_floats : t -> float array
  (** Leading components. *)

  val add : dst:t -> t -> t -> unit
  (** Elementwise; [dst] may alias either operand. *)

  val sub : dst:t -> t -> t -> unit
  val mul : dst:t -> t -> t -> unit

  val map : dst:t -> (elt -> elt) -> t -> unit
  (** [dst.(i) <- f src.(i)] in index order ([dst] may alias the
      source): scalar-only operations over planar storage, bitwise the
      scalar loop by construction. *)

  val map2 : dst:t -> (elt -> elt -> elt) -> t -> t -> unit

  val axpy : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  (** [y.(i) <- add (mul alpha x.(i)) y.(i)] for [lo <= i < hi]. *)

  val madd : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  (** [y.(yoff+i) <- add y.(yoff+i) (mul alpha x.(xoff+i))]: the GEMM
      rank-1 row update, accumulator-first operand order. *)

  val dot : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc (mul x.(xoff+i) y.(yoff+i))]. *)

  val sum : init:elt -> x:t -> xoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc x.(xoff+i)]. *)

  val dot_rows :
    a:t -> aoff:int -> ld:int -> x:t -> xoff:int -> len:int -> dst:t -> lo:int -> hi:int -> unit
  (** [dst.(i) <- dot ~init:zero ~x:a ~xoff:(aoff + i*ld) ~y:x ~yoff:xoff
      ~len] for [lo <= i < hi]: the GEMV rows, [lanes] of them folded
      side by side, each bitwise its own [dot]. *)
end

(** A generated tier: the {!V} kernels run the C loops, and the [_ml]
    operations are the OCaml loops they fall back to, with the same
    contracts -- the bitwise reference the tests hold the C loops to. *)
module type TIER = sig
  include V

  val add_ml : dst:t -> t -> t -> unit
  val sub_ml : dst:t -> t -> t -> unit
  val mul_ml : dst:t -> t -> t -> unit
  val axpy_ml : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  val madd_ml : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  val dot_ml : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt
  val sum_ml : init:elt -> x:t -> xoff:int -> len:int -> elt

  val dot_rows_ml :
    a:t -> aoff:int -> ld:int -> x:t -> xoff:int -> len:int -> dst:t -> lo:int -> hi:int -> unit
end

|}

(* The native-double tier's storage and OCaml loops; [batch_ml] appends
   its C wrappers. *)
let mf1v =
  {|(* ------------------------------------------------------------------ *)
(* 1-term vectors: native doubles in a single plane, so the 53-bit row
   of the benchmark tables runs through the same batched kernels.      *)

module Mf1v = struct
  type elt = float

  type t = { n : int; c0 : floatarray }

  let terms = 1
  let lanes = lanes
  let length v = v.n
  let create n = { n; c0 = F.make n 0.0 }
  let copy v = { n = v.n; c0 = F.copy v.c0 }
  let get v i = F.get v.c0 i
  let set v i e = F.set v.c0 i e
  let of_array es = { n = Array.length es; c0 = F.init (Array.length es) (Array.get es) }
  let to_array v = Array.init v.n (F.get v.c0)
  let of_floats = of_array
  let to_floats = to_array

  let check2 name a b = if a.n <> b.n then invalid_arg name

  let check_range name v ~off ~len =
    if off < 0 || len < 0 || off + len > v.n then invalid_arg name

  let add_span ~dst a b lo hi =
    for i = lo to hi - 1 do
      F.unsafe_set dst.c0 i (F.unsafe_get a.c0 i +. F.unsafe_get b.c0 i)
    done

  let add_ml ~dst a b =
    check2 "Batch.add" a b;
    check2 "Batch.add" a dst;
    add_span ~dst a b 0 a.n

  let sub_span ~dst a b lo hi =
    for i = lo to hi - 1 do
      F.unsafe_set dst.c0 i (F.unsafe_get a.c0 i -. F.unsafe_get b.c0 i)
    done

  let sub_ml ~dst a b =
    check2 "Batch.sub" a b;
    check2 "Batch.sub" a dst;
    sub_span ~dst a b 0 a.n

  let mul_span ~dst a b lo hi =
    for i = lo to hi - 1 do
      F.unsafe_set dst.c0 i (F.unsafe_get a.c0 i *. F.unsafe_get b.c0 i)
    done

  let mul_ml ~dst a b =
    check2 "Batch.mul" a b;
    check2 "Batch.mul" a dst;
    mul_span ~dst a b 0 a.n

  let map ~dst f src =
    check2 "Batch.map" src dst;
    for i = 0 to src.n - 1 do
      set dst i (f (get src i))
    done

  let map2 ~dst f a b =
    check2 "Batch.map2" a b;
    check2 "Batch.map2" a dst;
    for i = 0 to a.n - 1 do
      set dst i (f (get a i) (get b i))
    done

  let axpy_ml ~lo ~hi ~alpha ~x ~y =
    check2 "Batch.axpy" x y;
    if lo < 0 || hi > x.n || lo > hi then invalid_arg "Batch.axpy";
    for i = lo to hi - 1 do
      F.unsafe_set y.c0 i ((alpha *. F.unsafe_get x.c0 i) +. F.unsafe_get y.c0 i)
    done

  let madd_ml ~alpha ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.madd" x ~off:xoff ~len;
    check_range "Batch.madd" y ~off:yoff ~len;
    for i = 0 to len - 1 do
      F.unsafe_set y.c0 (yoff + i)
        (F.unsafe_get y.c0 (yoff + i) +. (alpha *. F.unsafe_get x.c0 (xoff + i)))
    done

  let dot_ml ~init ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.dot" x ~off:xoff ~len;
    check_range "Batch.dot" y ~off:yoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := !acc +. (F.unsafe_get x.c0 (xoff + i) *. F.unsafe_get y.c0 (yoff + i))
    done;
    !acc

  let sum_ml ~init ~x ~xoff ~len =
    check_range "Batch.sum" x ~off:xoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := !acc +. F.unsafe_get x.c0 (xoff + i)
    done;
    !acc

  let dot_rows_ml ~a ~aoff ~ld ~x ~xoff ~len ~dst ~lo ~hi =
    check_rows "Batch.dot_rows" ~a_n:a.n ~aoff ~ld ~x_n:x.n ~xoff ~len ~dst_n:dst.n ~lo ~hi;
    for i = lo to hi - 1 do
      set dst i (dot_ml ~init:0.0 ~x:a ~xoff:(aoff + (i * ld)) ~y:x ~yoff:xoff ~len)
    done

|}

let footer =
  {|
(* ------------------------------------------------------------------ *)
(* Generic fallback: planar layout over any scalar expansion type.     *)

(** What {!Of_scalar} needs from a scalar arithmetic: the
    component-array view plus the three ring operations. *)
module type SCALAR = sig
  type t

  val terms : int
  val zero : t
  val of_float : float -> t
  val to_float : t -> float
  val components : t -> float array
  val of_components : float array -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
end

(** Planar storage with element-at-a-time scalar arithmetic: the same
    layout and accumulation orders as the generated vectors, for
    types without a specialized batch kernel (e.g. the emulated-float32
    GPU types).  Semantically -- and bitwise -- identical to running
    the scalar kernels over an element array. *)
module Of_scalar (K : SCALAR) : V with type elt = K.t = struct
  type elt = K.t

  type t = { n : int; planes : floatarray array }

  let terms = K.terms
  let lanes = 1
  let length v = v.n
  let create n = { n; planes = Array.init K.terms (fun _ -> F.make n 0.0) }
  let copy v = { n = v.n; planes = Array.map F.copy v.planes }

  let get v i = K.of_components (Array.init K.terms (fun k -> F.get v.planes.(k) i))

  let set v i e =
    let c = K.components e in
    for k = 0 to K.terms - 1 do
      F.set v.planes.(k) i c.(k)
    done

  let of_array es =
    let v = create (Array.length es) in
    Array.iteri (fun i e -> set v i e) es;
    v

  let to_array v = Array.init v.n (get v)

  let of_floats fs =
    let v = create (Array.length fs) in
    Array.iteri (fun i f -> set v i (K.of_float f)) fs;
    v

  let to_floats v = Array.init v.n (fun i -> K.to_float (get v i))

  let check2 name a b = if a.n <> b.n then invalid_arg name

  let check_range name v ~off ~len =
    if off < 0 || len < 0 || off + len > v.n then invalid_arg name

  let ew name f ~dst a b =
    check2 name a dst;
    check2 name a b;
    for i = 0 to a.n - 1 do
      set dst i (f (get a i) (get b i))
    done

  let add ~dst a b = ew "Batch.add" K.add ~dst a b
  let sub ~dst a b = ew "Batch.sub" K.sub ~dst a b
  let mul ~dst a b = ew "Batch.mul" K.mul ~dst a b

  let map ~dst f src =
    check2 "Batch.map" src dst;
    for i = 0 to src.n - 1 do
      set dst i (f (get src i))
    done

  let map2 ~dst f a b =
    check2 "Batch.map2" a b;
    check2 "Batch.map2" a dst;
    for i = 0 to a.n - 1 do
      set dst i (f (get a i) (get b i))
    done

  let axpy ~lo ~hi ~alpha ~x ~y =
    check2 "Batch.axpy" x y;
    if lo < 0 || hi > x.n || lo > hi then invalid_arg "Batch.axpy";
    for i = lo to hi - 1 do
      set y i (K.add (K.mul alpha (get x i)) (get y i))
    done

  let madd ~alpha ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.madd" x ~off:xoff ~len;
    check_range "Batch.madd" y ~off:yoff ~len;
    for i = 0 to len - 1 do
      set y (yoff + i) (K.add (get y (yoff + i)) (K.mul alpha (get x (xoff + i))))
    done

  let dot ~init ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.dot" x ~off:xoff ~len;
    check_range "Batch.dot" y ~off:yoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := K.add !acc (K.mul (get x (xoff + i)) (get y (yoff + i)))
    done;
    !acc

  let sum ~init ~x ~xoff ~len =
    check_range "Batch.sum" x ~off:xoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := K.add !acc (get x (xoff + i))
    done;
    !acc

  let dot_rows ~a ~aoff ~ld ~x ~xoff ~len ~dst ~lo ~hi =
    check_rows "Batch.dot_rows" ~a_n:a.n ~aoff ~ld ~x_n:x.n ~xoff ~len ~dst_n:dst.n ~lo ~hi;
    for i = lo to hi - 1 do
      set dst i (dot ~init:K.zero ~x:a ~xoff:(aoff + (i * ld)) ~y:x ~yoff:xoff ~len)
    done
end
|}

let batch_ml () =
  let buf = Buffer.create (1 lsl 18) in
  Buffer.add_string buf header;
  bpf buf "(* Elements per C block (see batch_stubs.c). *)\nlet block = %d\n" block;
  bpf buf "\n(* Rows dot_rows folds side by side (see batch_stubs.c). *)\nlet lanes = %d\n" lanes;
  Buffer.add_string buf header_rest;
  Buffer.add_string buf mf1v;
  bpf buf "\n";
  emit_wrappers buf tier1;
  bpf buf "end\n\n";
  List.iteri
    (fun i tr ->
      if i > 0 then Buffer.add_string buf "\n";
      emit_tier buf tr)
    tiers;
  Buffer.add_string buf footer;
  Buffer.contents buf

(* --- batch_stubs.c assembly ------------------------------------------- *)

(* C stubs are the kernels' loops and nothing else: every float
   operation comes from [emit_program ~syn:c] over the same programs
   the OCaml loops above run.  Naming: plane pointers p<local><k>,
   per-element loads <local><k>, alpha al<k>, accumulators acc<k>,
   block buffers <buf><k>[MF_BLOCK]. *)

let cn pre t = Array.init t (fun k -> spf "%s%d" pre k)
let cjoin f pre t = String.concat ", " (Array.to_list (Array.map f (cn pre t)))
let restrict_in pre t = cjoin (spf "const double *restrict %s") pre t
let restrict_out pre t = cjoin (spf "double *restrict %s") pre t
let nan_of outs = String.concat " | " (List.map (spf "MF_NAN(%s)") outs)

let c_loads buf ~indent ~local ~plane ~idx t ~neg =
  for k = 0 to t - 1 do
    bpf buf "%sconst double %s%d = %s%s%d[%s];\n" indent local k (if neg then "-" else "") plane k
      idx
  done

let c_params op = snd (List.assoc op c_ops)

let c_signature tr op =
  spf "MF_CLONES value %s(%s)" (stub tr op)
    (String.concat ", " (List.map (spf "value %s") (c_params op)))

(* Plane pointers of record [v] at offset [off] (a C expression). *)
let c_planes buf tr ~local ~v ~off ~const =
  for k = 0 to tr.t - 1 do
    bpf buf "  %sdouble *const p%s%d = MF_PLANE(%s, %d)%s;\n"
      (if const then "const " else "")
      local k v k
      (if off = "" then "" else " + " ^ off)
  done

let c_alpha buf tr =
  bpf buf "  const double %s;\n"
    (cat ", " tr.t (fun k -> spf "al%d = Double_flat_field(al, %d)" k k))

let c_acc_load buf tr =
  bpf buf "  double %s;\n" (cat ", " tr.t (fun k -> spf "acc%d = Double_flat_field(acc, %d)" k k))

let c_acc_store buf tr =
  for k = 0 to tr.t - 1 do
    bpf buf "  Store_double_flat_field(acc, %d, acc%d);\n" k k
  done

let c_block_buf buf tr name =
  bpf buf "  double %s;\n" (cat ", " tr.t (fun k -> spf "%s%d[MF_BLOCK]" name k))

let c_block_len buf ~indent ~hi =
  bpf buf "%sconst intnat m = %s - j < MF_BLOCK ? %s - j : MF_BLOCK;\n" indent hi hi

(* "px0 + j, px1 + j, ..." for each local *)
let c_shifted tr locals =
  String.concat ", " (List.concat_map (fun l -> seq tr.t (fun k -> spf "p%s%d + j" l k)) locals)

let c_list tr name = cat ", " tr.t (spf "%s%d" name)

(* A vectorizable block loop over [m] elements: loads [ins] (local,
   negate) through restrict-qualified plane pointers, runs [body], and
   writes its outputs to the block buffer [out].  With [~nan], it also
   returns whether any output is a NaN. *)
let emit_c_block buf tr ~fn ~alpha ~ins ~out ~nan ~body =
  let t = tr.t in
  bpf buf "MF_INLINE %s %s(intnat m%s, %s, %s)\n{\n"
    (if nan then "int" else "void")
    fn
    (if alpha then ", " ^ cjoin (spf "double %s") "al" t else "")
    (String.concat ", " (List.map (fun (l, _) -> restrict_in ("p" ^ l) t) ins))
    (restrict_out out t);
  if nan then bpf buf "  int nan = 0;\n";
  bpf buf "  MF_IVDEP\n  for (intnat i = 0; i < m; i++) {\n";
  List.iter
    (fun (l, neg) -> c_loads buf ~indent:"    " ~local:l ~plane:("p" ^ l) ~idx:"i" t ~neg)
    ins;
  let vals = body buf in
  Array.iteri (fun k v -> bpf buf "    %s%d[i] = %s;\n" out k v) vals;
  if nan then begin
    bpf buf "    nan |= %s;\n" (nan_of (Array.to_list vals));
    bpf buf "  }\n  return nan;\n}\n\n"
  end
  else bpf buf "  }\n}\n\n"

let c_prog ~indent ~prefix prog args buf =
  emit_program ~syn:c buf ~indent ~prefix prog ~args:(Array.concat args)

(* add / sub / mul / axpy / madd: blocks of [MF_BLOCK] computed into a
   stack buffer and stored only when NaN-free; returns [hi], or the
   start of the first block it declined. *)
let emit_c_elementwise buf tr ~op ~doc ~alpha ~ins ~out ~body =
  let t = tr.t in
  let fn = spf "mf%d_%s_block" t op in
  emit_c_block buf tr ~fn ~alpha ~ins:(List.map (fun (l, _, _, neg) -> (l, neg)) ins) ~out:"o"
    ~nan:true ~body;
  bpf buf "/* %s */\n%s\n{\n" doc (c_signature tr op);
  bpf buf "  const intnat end = Long_val(hi);\n";
  if alpha then c_alpha buf tr;
  List.iter (fun (l, v, off, _) -> c_planes buf tr ~local:l ~v ~off ~const:true) ins;
  (let v, off = out in
   c_planes buf tr ~local:"d" ~v ~off ~const:false);
  c_block_buf buf tr "o";
  bpf buf "  for (intnat j = Long_val(lo); j < end; j += MF_BLOCK) {\n";
  c_block_len buf ~indent:"    " ~hi:"end";
  bpf buf "    if (%s(m, %s%s, %s))\n      return Val_long(j);\n" fn
    (if alpha then c_list tr "al" ^ ", " else "")
    (c_shifted tr (List.map (fun (l, _, _, _) -> l) ins))
    (c_list tr "o");
  for k = 0 to t - 1 do
    bpf buf "    for (intnat i = 0; i < m; i++) pd%d[j + i] = o%d[i];\n" k k
  done;
  bpf buf "  }\n  return hi;\n}\n\n"

let emit_c_dot buf tr =
  let t = tr.t in
  let fn = spf "mf%d_dot_stage" t in
  emit_c_block buf tr ~fn ~alpha:false ~ins:[ ("x", false); ("y", false) ] ~out:"sp"
    ~nan:false ~body:(c_prog ~indent:"    " ~prefix:"p" (mul_prog t) [ cn "x" t; cn "y" t ]);
  bpf buf
    "/* dot's loop: acc <- add(acc, mul(x[xoff+i], y[yoff+i])) for 0 <= i < len, the\n\
    \   products staged a block at a time, the fold serial.  Stops before the first\n\
    \   step whose accumulator has a NaN; returns the steps taken, and acc holds\n\
    \   the accumulator after them. */\n";
  bpf buf "%s\n{\n" (c_signature tr "dot");
  bpf buf "  const intnat n = Long_val(len);\n";
  c_planes buf tr ~local:"x" ~v:"x" ~off:"Long_val(xoff)" ~const:true;
  c_planes buf tr ~local:"y" ~v:"y" ~off:"Long_val(yoff)" ~const:true;
  c_acc_load buf tr;
  c_block_buf buf tr "sp";
  bpf buf "  intnat stop = n;\n";
  bpf buf "  for (intnat j = 0; j < n && stop == n; j += MF_BLOCK) {\n";
  c_block_len buf ~indent:"    " ~hi:"n";
  bpf buf "    %s(m, %s, %s);\n" fn (c_shifted tr [ "x"; "y" ]) (c_list tr "sp");
  bpf buf "    for (intnat i = 0; i < m; i++) {\n";
  c_loads buf ~indent:"      " ~local:"pv" ~plane:"sp" ~idx:"i" t ~neg:false;
  let q = c_prog ~indent:"      " ~prefix:"q" (add_prog t) [ cn "acc" t; cn "pv" t ] buf in
  bpf buf "      if (%s) {\n        stop = j + i;\n        break;\n      }\n"
    (nan_of (Array.to_list q));
  Array.iteri (fun k v -> bpf buf "      acc%d = %s;\n" k v) q;
  bpf buf "    }\n  }\n";
  c_acc_store buf tr;
  bpf buf "  return Val_long(stop);\n}\n\n"

(* dot_rows: the products of each row staged by [mfT_dot_stage], then
   one fold step for all MF_LANES rows at a time, reading the staged
   blocks transposed (lane l, element i): each lane runs [add_prog] over
   its own row in index order, so a row's bits are its serial fold's.
   [bad] sums [q - q] over every step's output sum [q]: it stays zero
   while the lane's accumulator is finite and turns NaN for good once
   a component is a NaN or an infinity. *)
let emit_c_dot_rows buf tr =
  let t = tr.t in
  let fn = spf "mf%d_dot_lanes" t in
  bpf buf "MF_INLINE void %s(intnat m, %s, mf_lanes *restrict bad, %s)\n{\n" fn
    (cjoin (spf "mf_lanes *restrict %s") "acc" t)
    (cjoin (spf "const double (*restrict %s)[MF_BLOCK]") "sp" t);
  bpf buf "  %s\n" (cat " " t (fun k -> spf "mf_lanes av%d = *acc%d;" k k));
  bpf buf "  mf_lanes nan = *bad;\n";
  bpf buf "  for (intnat i = 0; i < m; i++) {\n";
  bpf buf "    mf_lanes %s;\n" (cat ", " t (fun k -> spf "pv%d" k));
  bpf buf "    for (int l = 0; l < MF_LANES; l++) {\n";
  for k = 0 to t - 1 do
    bpf buf "      pv%d[l] = sp%d[l][i];\n" k k
  done;
  bpf buf "    }\n";
  let q =
    emit_program ~syn:{ c with bind = (fun n e -> spf "const mf_lanes %s = %s;" n e) } buf
      ~indent:"    " ~prefix:"q" (add_prog t) ~args:(Array.append (cn "av" t) (cn "pv" t))
  in
  bpf buf "    const mf_lanes qsum = %s;\n" (String.concat " + " (Array.to_list q));
  bpf buf "    nan = nan + (qsum - qsum);\n";
  Array.iteri (fun k v -> bpf buf "    av%d = %s;\n" k v) q;
  bpf buf "  }\n";
  bpf buf "  %s\n" (cat " " t (fun k -> spf "*acc%d = av%d;" k k));
  bpf buf "  *bad = nan;\n}\n\n";
  bpf buf
    "/* dot_rows' loop: for lo <= r < hi, dst[r] = the dot fold from zero of row r of a\n\
    \   (len elements from aoff + r*ld) against x (len elements from xoff), MF_LANES rows\n\
    \   at a time, one per lane.  A lane whose accumulator had a NaN or an infinity at\n\
    \   any step is not stored: returns hi, or the first such row, after storing the\n\
    \   other rows of its group. */\n";
  bpf buf "%s\n{\n" (c_signature tr "dot_rows");
  bpf buf "  const intnat n = Long_val(len), stride = Long_val(ld), end = Long_val(hi);\n";
  c_planes buf tr ~local:"a" ~v:"a" ~off:"Long_val(aoff)" ~const:true;
  c_planes buf tr ~local:"x" ~v:"x" ~off:"Long_val(xoff)" ~const:true;
  c_planes buf tr ~local:"d" ~v:"dst" ~off:"" ~const:false;
  bpf buf "  double %s;\n" (cat ", " t (fun k -> spf "sp%d[MF_LANES][MF_BLOCK]" k));
  bpf buf "  for (intnat g = Long_val(lo); g < end; g += MF_LANES) {\n";
  bpf buf "    const intnat w = end - g < MF_LANES ? end - g : MF_LANES;\n";
  bpf buf "    mf_lanes %s;\n" (cat ", " t (fun k -> spf "acc%d = { 0.0 }" k));
  bpf buf "    mf_lanes bad = { 0.0 };\n";
  bpf buf "    /* lanes past the last row fold zeros and are not stored */\n";
  bpf buf "    for (intnat l = w; l < MF_LANES; l++)\n";
  bpf buf "      for (intnat i = 0; i < MF_BLOCK; i++)\n";
  bpf buf "        %s = 0.0;\n" (cat " = " t (fun k -> spf "sp%d[l][i]" k));
  bpf buf "    for (intnat j = 0; j < n; j += MF_BLOCK) {\n";
  c_block_len buf ~indent:"      " ~hi:"n";
  bpf buf "      for (intnat l = 0; l < w; l++) {\n";
  bpf buf "        const intnat r = (g + l) * stride + j;\n";
  bpf buf "        mf%d_dot_stage(m, %s, %s, %s);\n" t
    (cat ", " t (fun k -> spf "pa%d + r" k))
    (cat ", " t (fun k -> spf "px%d + j" k))
    (cat ", " t (fun k -> spf "sp%d[l]" k));
  bpf buf "      }\n";
  bpf buf "      %s(m, %s, &bad, %s);\n" fn (cat ", " t (fun k -> spf "&acc%d" k))
    (cat ", " t (fun k -> spf "(const double (*)[MF_BLOCK]) sp%d" k));
  bpf buf "    }\n";
  bpf buf "    for (intnat l = 0; l < w; l++)\n";
  bpf buf "      if (!MF_NAN(bad[l])) {\n";
  for k = 0 to t - 1 do
    bpf buf "        pd%d[g + l] = acc%d[l];\n" k k
  done;
  bpf buf "      }\n";
  bpf buf "    for (intnat l = 0; l < w; l++)\n";
  bpf buf "      if (MF_NAN(bad[l]))\n        return Val_long(g + l);\n";
  bpf buf "  }\n  return hi;\n}\n\n"

let emit_c_sum buf tr =
  let t = tr.t in
  bpf buf
    "/* sum's loop: acc <- add(acc, x[xoff+i]) for 0 <= i < len; stops before the\n\
    \   first step whose accumulator has a NaN and returns the steps taken. */\n";
  bpf buf "%s\n{\n" (c_signature tr "sum");
  bpf buf "  const intnat n = Long_val(len);\n";
  c_planes buf tr ~local:"x" ~v:"x" ~off:"Long_val(xoff)" ~const:true;
  c_acc_load buf tr;
  bpf buf "  intnat i;\n";
  bpf buf "  for (i = 0; i < n; i++) {\n";
  c_loads buf ~indent:"    " ~local:"x" ~plane:"px" ~idx:"i" t ~neg:false;
  let v = c_prog ~indent:"    " ~prefix:"v" (add_prog t) [ cn "acc" t; cn "x" t ] buf in
  bpf buf "    if (%s)\n      break;\n" (nan_of (Array.to_list v));
  Array.iteri (fun k e -> bpf buf "    acc%d = %s;\n" k e) v;
  bpf buf "  }\n";
  c_acc_store buf tr;
  bpf buf "  return Val_long(i);\n}\n\n"

let emit_c_bytecode buf tr =
  List.iter
    (fun (op, (_, params)) ->
      let n = List.length params in
      if n > max_direct_args then begin
        bpf buf "value %s_byte(value *argv, int argn)\n{\n" (stub tr op);
        bpf buf "  (void) argn;\n";
        bpf buf "  return %s(%s);\n}\n\n" (stub tr op)
          (String.concat ", " (List.init n (spf "argv[%d]")))
      end)
    c_ops

let emit_c_tier buf tr =
  let t = tr.t in
  bpf buf "/* ---- %d-term planes (%sv) ---- */\n\n" t tr.mf;
  let xy = [ cn "x" t; cn "y" t ] in
  List.iter
    (fun (op, prog, neg) ->
      emit_c_elementwise buf tr ~op
        ~doc:(spf "%s: dst[i] = %s(a[i], %sb[i]) for lo <= i < hi." op
                (if op = "mul" then "mul" else "add") (if neg then "-" else ""))
        ~alpha:false
        ~ins:[ ("x", "a", "", false); ("y", "b", "", neg) ]
        ~out:("dst", "")
        ~body:(c_prog ~indent:"    " ~prefix:"v" prog xy))
    [ ("add", add_prog t, false); ("sub", add_prog t, true); ("mul", mul_prog t, false) ];
  emit_c_elementwise buf tr ~op:"axpy"
    ~doc:"axpy: y[i] = add(mul(alpha, x[i]), y[i]) for lo <= i < hi." ~alpha:true
    ~ins:[ ("x", "x", "", false); ("y", "y", "", false) ]
    ~out:("y", "")
    ~body:(fun buf ->
      let p = c_prog ~indent:"    " ~prefix:"p" (mul_prog t) [ cn "al" t; cn "x" t ] buf in
      c_prog ~indent:"    " ~prefix:"q" (add_prog t) [ p; cn "y" t ] buf);
  emit_c_elementwise buf tr ~op:"madd"
    ~doc:
      "madd: y[yoff+i] = add(y[yoff+i], mul(alpha, x[xoff+i])) for lo <= i < hi;\n\
      \   x and y are distinct vectors, or one vector at one offset."
    ~alpha:true
    ~ins:[ ("x", "x", "Long_val(xoff)", false); ("y", "y", "Long_val(yoff)", false) ]
    ~out:("y", "Long_val(yoff)")
    ~body:(fun buf ->
      let p = c_prog ~indent:"    " ~prefix:"p" (mul_prog t) [ cn "al" t; cn "x" t ] buf in
      c_prog ~indent:"    " ~prefix:"q" (add_prog t) [ cn "y" t; p ] buf);
  emit_c_dot buf tr;
  emit_c_dot_rows buf tr;
  emit_c_sum buf tr;
  emit_c_bytecode buf tr

let c_header =
  {|/* The planar FPAN kernels of Multifloat.Batch as C loops.

   Each loop runs, element for element, the IR program its OCaml
   twin in batch.ml runs, with the same gates on the same operands in
   the same order.  Built with -O3 -ffp-contract=off and without
   -march, every + - * and fma rounds exactly as in OCaml, so NaN-free
   results are bitwise those of the OCaml loops.  The compiler may
   still swap the operands of + and *, which changes which NaN payload
   propagates: elementwise loops therefore store a block only when
   none of its outputs is a NaN, and folds stop before the first step
   whose accumulator is a NaN.  dot_rows folds MF_LANES rows at once,
   one per lane of a GCC/Clang vector (mf_lanes), and stores no row
   whose lane accumulator was ever a NaN or an infinity.  The OCaml
   wrappers recompute the rest.

   On x86-64 glibc builds with GCC every kernel is compiled three times
   (x86-64-v4: AVX-512; x86-64-v3: AVX2 and FMA; baseline) and an ifunc
   resolver picks one when the program loads; elsewhere each kernel is
   one plain build.  mf_batch_isa reports the choice.

   Stubs never allocate, never raise and return an OCaml value (an
   index as Val_long); those with more than five arguments have a
   bytecode entry point.

   GENERATED by lib/fpan_ir/gen/gen_batch.ml (target [c]).  Do not edit
   this file by hand -- edit the generator and run `dune runtest`
   (whose drift rule diffs this file against a fresh regeneration),
   then `dune promote` to accept the new output. */

#define CAML_NAME_SPACE
#include <float.h>
#include <math.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

#ifndef FLAT_FLOAT_ARRAY
#error "batch_stubs.c reads OCaml float arrays as flat doubles"
#endif
#ifdef __FAST_MATH__
#error "batch_stubs.c needs IEEE arithmetic: build it without -ffast-math"
#endif
#if FLT_EVAL_METHOD != 0
#error "batch_stubs.c needs every double operation rounded to double"
#endif
#ifndef __GNUC__
#error "batch_stubs.c folds dot_rows in GCC/Clang vector-extension lanes"
#endif

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__GLIBC__)
#define MF_DISPATCH 1
#define MF_CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define MF_DISPATCH 0
#define MF_CLONES
#endif

/* Block loops are inlined into each clone, so each clone compiles
   them for its own instruction set. */
#if defined(__GNUC__)
#define MF_INLINE static inline __attribute__((always_inline))
#else
#define MF_INLINE static inline
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define MF_IVDEP _Pragma("GCC ivdep")
#else
#define MF_IVDEP
#endif

#define MF_PLANE(v, k) ((double *) Field((v), (k) + 1))
#define MF_NAN(x) ((x) != (x))

/* The clone the resolver of every MF_CLONES kernel picks, by the same
   CPU-feature test. */
value mf_batch_isa(value unit)
{
  (void) unit;
#if MF_DISPATCH
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4"))
    return caml_copy_string("x86-64-v4");
  if (__builtin_cpu_supports("x86-64-v3"))
    return caml_copy_string("x86-64-v3");
  return caml_copy_string("default");
#else
  return caml_copy_string("portable");
#endif
}

/* The C compiler that built these kernels. */
value mf_batch_cc(value unit)
{
  (void) unit;
#if defined(__clang__)
  return caml_copy_string("clang " __clang_version__);
#else
  return caml_copy_string("gcc " __VERSION__);
#endif
}
|}

let batch_c () =
  let buf = Buffer.create (1 lsl 19) in
  Buffer.add_string buf c_header;
  bpf buf "\n#define MF_BLOCK %d\n#define MF_LANES %d\n\n" block lanes;
  bpf buf "/* One double per dot_rows lane; the clone's instruction set sets how many\n\
           \   vector registers a value spans. */\n";
  bpf buf "typedef double mf_lanes __attribute__((vector_size(MF_LANES * sizeof(double))));\n\n";
  List.iter (emit_c_tier buf) (tier1 :: tiers);
  (* one trailing newline *)
  let s = Buffer.contents buf in
  String.sub s 0 (String.length s - 1)

(* --- fpan_scalar.ml assembly ----------------------------------------- *)

(* Field names of the expansion records, leading component first. *)
let fields tr = if tr.t = 2 then [| "hi"; "lo" |] else Array.init tr.t (spf "x%d")

(* "let add (a : t) (b : t) : t = let x0 = a.hi and ... in ... { hi = ..; lo = .. }" *)
let emit_scalar_fn ?dekker buf tr ~name prog =
  let f = fields tr in
  bpf buf "  let %s (a : t) (b : t) : t =\n" name;
  bpf buf "    let %s in\n"
    (String.concat " and "
       (List.concat_map
          (fun (l, r) -> seq tr.t (fun k -> spf "%s%d = %s.%s" l k r f.(k)))
          [ ("x", "a"); ("y", "b") ]));
  let outs =
    emit_program ?dekker buf ~indent:"    " ~prefix:"" prog
      ~args:(Array.append (names "x" tr) (names "y" tr))
  in
  bpf buf "    { %s }\n" (cat "; " tr.t (fun k -> spf "%s = %s" f.(k) outs.(k)))

let emit_scalar_tier buf tr =
  bpf buf "module %s = struct\n" tr.mf;
  bpf buf "  type t = { %s }\n\n" (cat "; " tr.t (fun k -> spf "%s : float" (fields tr).(k)));
  emit_scalar_fn buf tr ~name:"add" (Front.add_kernel tr.t);
  bpf buf "\n";
  emit_scalar_fn buf tr ~name:"sub" (Front.sub_kernel tr.t);
  bpf buf "\n";
  emit_scalar_fn buf tr ~name:"mul" (Front.mul_kernel tr.t);
  bpf buf "\n";
  emit_scalar_fn ~dekker:true buf tr ~name:"mul_no_fma" (Front.mul_kernel tr.t);
  bpf buf "end\n"

let scalar_header =
  {|(* Scalar MultiFloat kernels: the add/sub/mul cores of [Mf2]/[Mf3]/[Mf4]
   as straight-line float code over expansion records.

   Each function reads its operands' fields, runs one FPAN wire program
   with every TwoSum/FastTwoSum/TwoProd gate expanded to plain float
   operations (no tuple returns; the only allocation is the result
   record), and returns one record.  The programs are the
   [Fpan_ir.Front] add/sub/mul kernels the planar [Batch] kernels are
   generated from, so scalar = planar holds by construction, and the
   wire programs lib/verify proves are the ones that run here.
   [mul_no_fma] is [mul]'s program with each TwoProd realized by
   Veltkamp-Dekker splitting: the kernel for hardware without a fused
   multiply-add, bitwise [Eft.two_prod_dekker] gate for gate.

   GENERATED by lib/fpan_ir/gen/gen_batch.ml (target [scalar]).  Do not
   edit this file by hand -- edit the generator and run `dune runtest`
   (whose drift rule diffs this file against a fresh regeneration),
   then `dune promote` to accept the new output. *)
|}

let scalar_ml () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf scalar_header;
  List.iter
    (fun tr ->
      Buffer.add_string buf "\n";
      emit_scalar_tier buf tr)
    tiers;
  Buffer.contents buf
