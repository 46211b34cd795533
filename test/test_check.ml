(* Tests for the differential audit subsystem itself: the mutation
   sanity check (a harness that cannot catch a known-broken
   renormalization proves nothing), the shrinker, and a short real
   campaign that must come back clean. *)

let test_mutation_caught () =
  match Check.Fuzz.self_test () with
  | Error msg -> Alcotest.fail msg
  | Ok (finding, shrunk, terms) ->
      Alcotest.(check bool)
        "sloppy_add flagged on a cancellation-family class" true
        (match finding.Check.Differ.kind with
        | Check.Differ.Bound_exceeded | Check.Differ.Nonfinite_result -> true
        | _ -> false);
      Alcotest.(check bool) "shrunk to <= 4 nonzero terms" true (terms <= 4);
      Alcotest.(check int) "shrink preserves operand count" 2 (Array.length shrunk)

let test_shrink_minimizes () =
  (* Failing check: "operand 0 still contains a component > 1".  The
     shrinker must zero everything else and simplify the witness to a
     power of two. *)
  let keep inputs = Array.exists (fun v -> Float.abs v > 1.0) inputs.(0) in
  let inputs = [| [| 3.5; 0.25; 100.0; 1e-9 |]; [| 7.0; 2.0 |] |] in
  let shrunk = Check.Shrink.shrink ~keep inputs in
  Alcotest.(check bool) "still failing" true (keep shrunk);
  Alcotest.(check int) "one surviving term" 1 (Check.Shrink.nonzero_terms shrunk);
  let survivor = Array.concat (Array.to_list shrunk) |> Array.to_list |> List.filter (fun v -> v <> 0.0) in
  (match survivor with
  | [ v ] ->
      (* the 100.0 witness simplifies to the power of two in its binade *)
      Alcotest.(check (float 0.0)) "simplified to a power of two" 64.0 v
  | _ -> Alcotest.fail "expected exactly one surviving component")

let test_shrink_keeps_original_on_minimal () =
  (* Already-minimal input: nothing to do, nothing corrupted. *)
  let keep inputs = inputs.(0).(0) = 1.0 in
  let shrunk = Check.Shrink.shrink ~keep [| [| 1.0 |] |] in
  Alcotest.(check (float 0.0)) "untouched" 1.0 shrunk.(0).(0)

let test_short_campaign_clean () =
  let cfg = { Check.Fuzz.default with Check.Fuzz.cases = 400; seed = 7 } in
  let report = Check.Fuzz.run cfg in
  if not (Check.Fuzz.passed report) then begin
    List.iter
      (fun f ->
        Printf.eprintf "FAIL %s %s %s\n" f.Check.Fuzz.finding.Check.Differ.impl
          (Check.Corpus.op_name f.Check.Fuzz.finding.Check.Differ.op)
          (Check.Differ.kind_name f.Check.Fuzz.finding.Check.Differ.kind))
      report.Check.Fuzz.failures;
    Alcotest.failf "short campaign found %d failure(s)" report.Check.Fuzz.failure_count
  end;
  Alcotest.(check bool) "scalar cases ran" true (report.Check.Fuzz.scalar_cases >= 1200);
  (* Every gated row must have recorded real measurements, and the batch
     rows must mirror their scalar twins exactly (same count, same max —
     they are bitwise-identical results). *)
  List.iter
    (fun row ->
      if row.Check.Fuzz.gated && row.Check.Fuzz.op = "add" then
        Alcotest.(check bool)
          (Printf.sprintf "%s add measured" row.Check.Fuzz.impl)
          true
          (Check.Ulp_stats.count row.Check.Fuzz.stats > 0))
    report.Check.Fuzz.rows;
  let find impl op =
    List.find
      (fun r -> r.Check.Fuzz.impl = impl && r.Check.Fuzz.op = op)
      report.Check.Fuzz.rows
  in
  List.iter
    (fun (scalar, batch) ->
      List.iter
        (fun op ->
          let s = find scalar op and b = find batch op in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s %s: same case count" scalar batch op)
            (Check.Ulp_stats.count s.Check.Fuzz.stats)
            (Check.Ulp_stats.count b.Check.Fuzz.stats);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s/%s %s: same max error" scalar batch op)
            (Check.Ulp_stats.max_ulps s.Check.Fuzz.stats)
            (Check.Ulp_stats.max_ulps b.Check.Fuzz.stats))
        [ "add"; "sub"; "mul"; "dot" ])
    [ ("mf2", "mf2-batch"); ("mf3", "mf3-batch"); ("mf4", "mf4-batch") ]

let test_report_json_wellformed () =
  let cfg =
    { Check.Fuzz.default with Check.Fuzz.cases = 50; tiers = [ 2 ]; ops = [ Check.Corpus.Add ] }
  in
  let report = Check.Fuzz.run cfg in
  let s = Obs.Json_out.to_string (Check.Fuzz.to_json report) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions schema" true (contains s "fpan-check/1");
  Alcotest.(check bool) "carries results" true (contains s "\"results\"")

let () =
  Alcotest.run "check"
    [ ( "audit-harness",
        [ Alcotest.test_case "mutation self-test" `Quick test_mutation_caught;
          Alcotest.test_case "shrinker minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "shrinker no-op on minimal" `Quick test_shrink_keeps_original_on_minimal;
          Alcotest.test_case "short campaign clean" `Quick test_short_campaign_clean;
          Alcotest.test_case "report json" `Quick test_report_json_wellformed ] ) ]
