(* The exhaustive small-width verification backend (lib/verify):
   gate-level EFT proofs over full reduced formats, whole-network
   sweeps over shaped operand spaces, the seeded-mutant regression
   with its pinned minimal counterexample, IR-vs-interpreter bitwise
   equivalence, and worker-count determinism of the certificate. *)

module M = Gpu32.Minifloat
module Sweep = Verify.Sweep
module Space = Verify.Space

let workers = 2

(* --- gate level ----------------------------------------------------- *)

let tiny_fmt = M.fmt ~p:4 ~emin:(-3) ~emax:3

let test_gate_level_tiny () =
  let g = Sweep.gate_level ~workers tiny_fmt in
  (* 2 zeros + per sign: 7 subnormals + 7 binades * 8 mantissas *)
  Alcotest.(check int) "values" 128 g.Sweep.values;
  Alcotest.(check int) "pairs" (128 * 128) g.Sweep.pairs;
  Alcotest.(check bool) "no EFT violations" true (Sweep.gate_passed g);
  (* every pair is either checked or skipped, for each op *)
  List.iter
    (fun (name, (c : Sweep.gate_counts)) ->
      Alcotest.(check int) (name ^ " covers all pairs") g.Sweep.pairs
        (c.Sweep.g_checked + c.Sweep.g_skipped))
    [ ("two_sum", g.Sweep.two_sum);
      ("fast_two_sum", g.Sweep.fast_two_sum);
      ("two_prod", g.Sweep.two_prod) ];
  (* the sweep is not vacuous: the vast majority of TwoSum pairs check *)
  Alcotest.(check bool) "two_sum mostly checked" true
    (g.Sweep.two_sum.Sweep.g_checked > g.Sweep.pairs / 2)

(* --- whole-network sweeps ------------------------------------------- *)

let small_add2 () = Sweep.add_network ~width:4 ~window:1 ~gap:1 Fpan.Networks.add2 ~terms:2

let test_add2_sweep_passes () =
  let r = Sweep.run ~workers (small_add2 ()) in
  Alcotest.(check bool) "add2 passes" true (Sweep.passed r);
  Alcotest.(check (list int)) "no failures" [] (List.map (fun f -> f.Sweep.index) r.Sweep.failures);
  (* the equivalence obligation ran on every tuple *)
  let eq = Sweep.obligation_index Sweep.Equivalence in
  Alcotest.(check int) "equivalence on every tuple" r.Sweep.tuples r.Sweep.counts.Sweep.checked.(eq);
  (* worst observed relative error respects the scaled bound 2^-(2w-1) *)
  Alcotest.(check bool) "worst error within bound" true
    (r.Sweep.worst_err_log2 <= -.float_of_int (Option.get r.Sweep.error_bound_exp))

let test_mul2_sweep_passes () =
  let r = Sweep.run ~workers (Sweep.mul_network ~width:4 ~window:1 ~gap:1 Fpan.Networks.mul2 ~terms:2) in
  Alcotest.(check bool) "mul2 passes" true (Sweep.passed r);
  let tp = Sweep.obligation_index Sweep.Eft_two_prod in
  Alcotest.(check bool) "two_prod constraints actually checked" true
    (r.Sweep.counts.Sweep.checked.(tp) > 0)

(* --- the seeded mutant and its pinned minimal counterexample --------- *)

let test_mutant_self_test () =
  match Verify.Mutants.self_test ~workers () with
  | Error msg -> Alcotest.fail msg
  | Ok f ->
      Alcotest.(check string) "violated obligation" "error_bound"
        (Sweep.obligation_name f.Sweep.obligation);
      Alcotest.(check int) "known-minimal size" 2 f.Sweep.shrunk_terms;
      (* the pinned minimum: x = 0, y = (1/2, 2^-5) — the smallest pair
         whose dropped TwoSum error exceeds sloppy-add2's claimed
         bound.  Deterministic: smallest violating tuple index, greedy
         shrink under the width-4 rounding. *)
      let expected = [| [| 0.0; 0.0 |]; [| 0.5; Float.ldexp 1.0 (-5) |] |] in
      Alcotest.(check bool) "pinned counterexample" true (f.Sweep.shrunk = expected);
      (* and it is a genuine width-4 operand pair *)
      Alcotest.(check bool) "valid at width 4" true
        (Space.valid_operands ~width:4 f.Sweep.shrunk)

let test_mutant_sweep_details () =
  let r = Sweep.run ~max_cex:3 ~workers (Verify.Mutants.mutant_spec ()) in
  Alcotest.(check bool) "sloppy-add2 fails" false (Sweep.passed r);
  let eb = Sweep.obligation_index Sweep.Error_bound in
  Alcotest.(check bool) "error_bound violations counted" true
    (r.Sweep.counts.Sweep.violations.(eb) > 0);
  Alcotest.(check int) "max_cex failures recorded" 3 (List.length r.Sweep.failures);
  (* failure indices ascend (smallest-index merge) and shrink stayed small *)
  let idxs = List.map (fun f -> f.Sweep.index) r.Sweep.failures in
  Alcotest.(check (list int)) "ascending smallest indices" (List.sort compare idxs) idxs;
  List.iter
    (fun f -> Alcotest.(check bool) "shrunk <= 4 terms" true (f.Sweep.shrunk_terms <= 4))
    r.Sweep.failures

(* --- fused chains: bitwise IR equivalence at reduced width ----------- *)

let test_chain_sweeps_pass () =
  List.iter
    (fun (name, terms, width) ->
      let r = Sweep.run ~workers (Sweep.chain ~width ~window:1 ~gap:1 name ~terms) in
      Alcotest.(check bool) (name ^ " passes") true (Sweep.passed r);
      let eq = Sweep.obligation_index Sweep.Equivalence in
      Alcotest.(check int)
        (name ^ " equivalence on every tuple")
        r.Sweep.tuples r.Sweep.counts.Sweep.checked.(eq))
    [ ("sum_step", 2, 3); ("dot_step", 2, 3); ("sub", 2, 3) ]

(* Direct Fpan_ir.Interp.run_rounded vs Fpan.Interp.run_rounded: the
   Front-derived kernel program and the mutable-wire network interpreter
   agree bitwise on every width-3 operand tuple (the sweeps above check
   the circuit path; this checks the IR interpreter path). *)
let test_ir_interp_bitwise_equivalence () =
  let width = 3 in
  let round = M.round_p width in
  let t = 2 in
  let slots =
    [| Space.expansions ~width ~terms:t ~gap:1 Space.Anchored;
       Space.expansions ~width ~terms:t ~gap:1 (Space.Windowed 1) |]
  in
  let space = Space.make ~name:"ir-equiv" ~width slots in
  let buf = Array.make (Space.num_inputs space) 0.0 in
  let prog_sum = Fpan_ir.Fuse.chain "sum_step" t in
  let prog_sub = Fpan_ir.Fuse.chain "sub" t in
  let interleave x y = Array.init (2 * t) (fun k -> if k mod 2 = 0 then x.(k / 2) else y.(k / 2)) in
  let bits = Array.map Int64.bits_of_float in
  for idx = 0 to space.Space.total - 1 do
    Space.fill_inputs space idx buf;
    let x = Array.sub buf 0 t and y = Array.sub buf t t in
    (* sum_step(acc, x) = add2 on interleaved wires *)
    let ir = Fpan_ir.Interp.run_rounded ~round prog_sum buf in
    let net = Fpan.Interp.run_rounded ~round Fpan.Networks.add2 (interleave x y) in
    if bits ir <> bits net then
      Alcotest.failf "sum_step mismatch at tuple %d: ir %h %h net %h %h" idx ir.(0) ir.(1) net.(0)
        net.(1);
    (* sub(b, acc) = add2 on (b, -acc) *)
    let ir = Fpan_ir.Interp.run_rounded ~round prog_sub buf in
    let net =
      Fpan.Interp.run_rounded ~round Fpan.Networks.add2 (interleave x (Array.map Float.neg y))
    in
    if bits ir <> bits net then Alcotest.failf "sub mismatch at tuple %d" idx
  done

(* run_rounded with the identity rounding is exactly the plain
   interpreter — the p = 53 degenerate case. *)
let test_run_rounded_identity () =
  let net = Fpan.Networks.add2 in
  let inputs = [| 1.0; Float.ldexp 1.0 (-40); -0.25; Float.ldexp 3.0 (-45) |] in
  Alcotest.(check bool) "run_rounded Fun.id = run" true
    (Fpan.Interp.run_rounded ~round:Fun.id net inputs = Fpan.Interp.run net inputs);
  let prog = Fpan_ir.Front.add_kernel 2 in
  let buf = [| 1.0; -0.25; Float.ldexp 1.0 (-40); Float.ldexp 3.0 (-45) |] in
  Alcotest.(check bool) "IR run_rounded Fun.id = run" true
    (Fpan_ir.Interp.run_rounded ~round:Fun.id prog buf = Fpan_ir.Interp.run prog buf)

(* --- operand space internals ----------------------------------------- *)

let test_space_membership_and_layout () =
  let spec = small_add2 () in
  let slots =
    [| Space.expansions ~width:spec.Sweep.width ~terms:2 ~gap:1 Space.Anchored;
       Space.expansions ~width:spec.Sweep.width ~terms:2 ~gap:1 (Space.Windowed 1) |]
  in
  let space = Space.make ~name:"membership" ~width:spec.Sweep.width slots in
  let buf = Array.make (Space.num_inputs space) 0.0 in
  for idx = 0 to space.Space.total - 1 do
    let ops = Space.operands space idx in
    if not (Space.valid_operands ~width:spec.Sweep.width ops) then
      Alcotest.failf "tuple %d not a valid operand pair" idx;
    (* fill_inputs is exactly the concatenation of the decoded operands *)
    Space.fill_inputs space idx buf;
    let concat = Array.concat (Array.to_list ops) in
    if buf <> concat then Alcotest.failf "tuple %d: fill_inputs disagrees with operands" idx
  done

let test_footprint_guard () =
  (* width 24 with a 20-binade gap spans far more than 52 bits: the
     sweep must refuse rather than silently lose exactness *)
  let spec = Sweep.add_network ~width:24 ~window:1 ~gap:20 Fpan.Networks.add2 ~terms:2 in
  match Sweep.run ~workers:1 spec with
  | _ -> Alcotest.fail "footprint over 52 bits was not rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the footprint" true
        (String.length msg > 0 && String.sub msg 0 26 = "Verify.Sweep.prepare: add2")

(* --- determinism across worker counts -------------------------------- *)

let test_worker_determinism () =
  let run w = Sweep.run ~workers:w (small_add2 ()) in
  let j w = Obs.Json_out.to_string (Sweep.result_json (run w)) in
  Alcotest.(check string) "certificate rows identical for 1 vs 2 workers" (j 1) (j 2);
  let g w = Obs.Json_out.to_string (Sweep.gate_json (Sweep.gate_level ~workers:w tiny_fmt)) in
  Alcotest.(check string) "gate level identical for 1 vs 2 workers" (g 1) (g 2)

(* --- certificate schema ----------------------------------------------- *)

let test_certificate_schema () =
  let gate = Sweep.gate_level ~workers tiny_fmt in
  let clean = Sweep.run ~workers (small_add2 ()) in
  let mutant = Sweep.run ~workers (Verify.Mutants.mutant_spec ()) in
  let chain = Sweep.run ~workers (Sweep.chain ~width:3 ~window:1 ~gap:1 "sum_step" ~terms:2) in
  (* covers: gate block, passing network, failing network with shrunk
     counterexample rows, chain with null error_bound_exp *)
  let json = Sweep.certificate ~gate [ clean; mutant; chain ] in
  Obs.Schema.check ~name:"fpan-verify/1" Obs.Schemas.verify_certificate json;
  (match json with
  | Obs.Json_out.Obj fields ->
      Alcotest.(check bool) "certificate not passed with mutant" true
        (List.assoc "passed" fields = Obs.Json_out.Bool false)
  | _ -> Alcotest.fail "certificate not an object");
  let json_ok = Sweep.certificate ~gate [ clean; chain ] in
  Obs.Schema.check ~name:"fpan-verify/1-ok" Obs.Schemas.verify_certificate json_ok;
  match json_ok with
  | Obs.Json_out.Obj fields ->
      Alcotest.(check bool) "clean certificate passed" true
        (List.assoc "passed" fields = Obs.Json_out.Bool true)
  | _ -> Alcotest.fail "certificate not an object"

let () =
  Alcotest.run "verify"
    [ ( "gate-level",
        [ Alcotest.test_case "tiny format exhaustive" `Quick test_gate_level_tiny ] );
      ( "sweeps",
        [ Alcotest.test_case "add2 passes" `Quick test_add2_sweep_passes;
          Alcotest.test_case "mul2 passes" `Quick test_mul2_sweep_passes;
          Alcotest.test_case "chains pass" `Quick test_chain_sweeps_pass ] );
      ( "mutant",
        [ Alcotest.test_case "self-test pinned minimum" `Quick test_mutant_self_test;
          Alcotest.test_case "sweep details" `Quick test_mutant_sweep_details ] );
      ( "equivalence",
        [ Alcotest.test_case "IR interp bitwise" `Quick test_ir_interp_bitwise_equivalence;
          Alcotest.test_case "identity rounding" `Quick test_run_rounded_identity ] );
      ( "space",
        [ Alcotest.test_case "membership and layout" `Quick test_space_membership_and_layout;
          Alcotest.test_case "footprint guard" `Quick test_footprint_guard ] );
      ( "determinism",
        [ Alcotest.test_case "workers 1 vs 2" `Quick test_worker_determinism ] );
      ( "certificate",
        [ Alcotest.test_case "schema" `Quick test_certificate_schema ] ) ]
