(* Every machine-readable artifact validates against its declared
   schema: the committed BENCH_*.json files on disk, plus CHECK and
   TRACE documents generated in-process.  Objects are closed, so an
   emitter growing a key fails here until Obs.Schemas declares it. *)

module J = Obs.Json_out
module S = Obs.Schema

let validate_file name schema path =
  match J.parse_file path with
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" path msg)
  | Ok doc -> S.check ~name schema doc

(* Under `dune runtest` the cwd is _build/default/test/ and the
   committed artifacts are dune deps one level up; under `dune exec`
   from the workspace root they are right here. *)
let artifact f =
  let up = Filename.concat ".." f in
  if Sys.file_exists up then up else f

let test_bench_figs () =
  List.iter
    (fun f -> validate_file f Obs.Schemas.bench_fig (artifact f))
    [ "BENCH_fig9.json"; "BENCH_fig10.json"; "BENCH_fig11.json" ];
  (* the kernel figures name the SIMD clone their timings came from *)
  List.iter
    (fun f ->
      match J.parse_file (artifact f) with
      | Error msg -> Alcotest.fail msg
      | Ok doc -> (
          match Option.bind (J.member "isa" doc) J.to_str with
          | Some isa when List.mem isa [ "x86-64-v4"; "x86-64-v3"; "default"; "portable" ] -> ()
          | _ -> Alcotest.failf "%s: no valid \"isa\" header" f))
    [ "BENCH_fig9.json"; "BENCH_fig10.json" ]

let num k v = Option.get (Option.bind (J.member k v) J.to_num)
let list k v = Option.get (Option.bind (J.member k v) J.to_list)
let parse path = J.parse_file (artifact path) |> Result.get_ok

(* Telemetry rows that cover exactly a timed window: no worker can have
   been busy for longer than the window's wall time. *)
let check_busy_within ~name ~window rows =
  let workers = Float.of_int (List.length rows) in
  let busy = List.fold_left (fun acc row -> acc +. num "busy_seconds" row) 0.0 rows in
  if busy > workers *. window *. 1.05 then
    Alcotest.failf "%s: %g workers busy %.4f s in a %.4f s window" name workers busy window

(* Beyond the schema: each curve point's telemetry covers exactly its
   timed reps, and its median wall comes with the spread of all of
   them. *)
let test_bench_sched () =
  validate_file "BENCH_sched.json" Obs.Schemas.bench_sched (artifact "BENCH_sched.json");
  let doc = parse "BENCH_sched.json" in
  List.iter
    (fun point ->
      check_busy_within ~name:"BENCH_sched.json" ~window:(num "window_wall_s" point)
        (list "telemetry" point);
      Alcotest.(check (float 0.0)) "spread.n = reps" (num "reps" doc)
        (num "n" (Option.get (J.member "spread" point))))
    (list "curve" doc);
  Alcotest.(check (option string)) "schema id" (Some "fpan-bench-sched/4")
    (Option.bind (J.member "schema" doc) J.to_str);
  (* the GEMV rung: every path bitwise the per-row loop, medians over
     all reps *)
  let gemv = Option.get (J.member "gemv" doc) in
  let flag k v = match J.member k v with Some (J.Bool b) -> Some b | _ -> None in
  Alcotest.(check (option bool)) "gemv dot_rows bitwise" (Some true)
    (flag "dot_rows_bitwise_equal_per_row" gemv);
  List.iter
    (fun point ->
      Alcotest.(check (option bool)) "gemv runtime bitwise" (Some true)
        (flag "bitwise_equal_per_row" point);
      Alcotest.(check (float 0.0)) "gemv spread.n = reps" (num "reps" doc)
        (num "n" (Option.get (J.member "spread" point))))
    (list "curve" gemv)

let test_bench_serve () =
  validate_file "BENCH_serve.json" Obs.Schemas.bench_serve (artifact "BENCH_serve.json")

let test_bench_fuse () =
  validate_file "BENCH_fuse.json" Obs.Schemas.bench_fuse (artifact "BENCH_fuse.json")

(* The codec rung: schema-valid, and every per-tier request row set
   carries all three paths. *)
let test_bench_codec () =
  validate_file "BENCH_codec.json" Obs.Schemas.bench_codec (artifact "BENCH_codec.json");
  let doc = parse "BENCH_codec.json" in
  let rows = Option.get (Option.bind (J.member "requests" doc) J.to_list) in
  List.iter
    (fun tier ->
      List.iter
        (fun path ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s row" tier path)
            true
            (List.exists
               (fun r ->
                 J.member "tier" r = Some (J.Str tier) && J.member "path" r = Some (J.Str path))
               rows))
        [ "tree_encode"; "tree_decode"; "single_pass_decode" ])
    [ "mf2"; "mf3"; "mf4" ]

(* The committed verification certificate: schema-valid and actually a
   passing certificate (worker-count-independent by construction, so
   no environment dependence beyond libm's log2 — validated
   structurally here, byte-compared across domain counts in CI). *)
let test_verify_certificate () =
  validate_file "VERIFY_core.json" Obs.Schemas.verify_certificate (artifact "VERIFY_core.json");
  let json = In_channel.with_open_text (artifact "VERIFY_core.json") In_channel.input_all in
  let has needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    if not (go 0) then Alcotest.failf "VERIFY_core.json missing %s" needle
  in
  has "\"passed\": true";
  has "\"name\": \"add2\"";
  has "\"name\": \"add3\"";
  has "\"name\": \"mul2\"";
  has "\"name\": \"dot_step";
  (* no sweep may have failed *)
  let bad = "\"passed\": false" in
  let n = String.length bad and h = String.length json in
  let rec go i = i + n <= h && (String.sub json i n = bad || go (i + 1)) in
  if go 0 then Alcotest.fail "committed certificate records a failing sweep"

(* The committed chaos campaign report: schema-valid under
   fpan-chaos/1 and actually a passing campaign — zero invariant
   violations, every scenario present. *)
let test_chaos_report () =
  validate_file "CHAOS_report.json" Obs.Schemas.chaos_report
    (artifact "CHAOS_report.json");
  let json =
    In_channel.with_open_text (artifact "CHAOS_report.json")
      In_channel.input_all
  in
  let has needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    if not (go 0) then Alcotest.failf "CHAOS_report.json missing %s" needle
  in
  has "\"schema\": \"fpan-chaos/1\"";
  has "\"passed\": true";
  (* every scenario of the matrix ran *)
  List.iter
    (fun (s : Chaos.Plan.scenario) ->
      has (Printf.sprintf "\"name\": %S" s.Chaos.Plan.name))
    Chaos.Plan.matrix;
  (* the three invariants all held *)
  has "\"server_deaths\": 0";
  has "\"bitwise_mismatches\": 0";
  has "\"fd_leak\": 0";
  let bad = "\"passed\": false" in
  let n = String.length bad and h = String.length json in
  let rec go i = i + n <= h && (String.sub json i n = bad || go (i + 1)) in
  if go 0 then Alcotest.fail "committed chaos report records a failing scenario"

(* Wire documents of the serving layer validate against their declared
   schemas in both directions: what the encoder emits passes, and the
   parse -> validate -> decode pipeline reproduces the request. *)
let test_serve_wire_schemas () =
  let module P = Serve.Protocol in
  let req =
    {
      P.id = 7;
      op = P.Dot;
      tier = P.Mf2;
      sla = None;
      deadline_ms = Some 12.5;
      prog = [];
      x = [| [| 1.5; 1e-18 |]; [| -0.25; 0.0 |] |];
      y = [| [| 3.0; 0.0 |]; [| Float.max_float; 1e292 |] |];
      z = [||];
    }
  in
  let prog_req =
    {
      P.id = 8;
      op = P.Program;
      tier = P.Mf2;
      sla = None;
      deadline_ms = None;
      prog = [ "axpy"; "dot" ];
      x = [| [| 1.5; 1e-18 |] |];
      y = [| [| 2.0; 0.0 |]; [| -0.25; 0.0 |] |];
      z = [| [| 3.0; 0.0 |] |];
    }
  in
  List.iter
    (fun req ->
      let doc = J.parse_exn (J.to_string_compact (P.request_to_json req)) in
      S.check ~name:"serve request" Obs.Schemas.serve_request doc;
      match P.request_of_json doc with
      | Error e -> Alcotest.fail ("request did not round-trip: " ^ e)
      | Ok r -> Alcotest.(check bool) "request round-trips bitwise" true (r = req))
    [ req; prog_req ];
  List.iter
    (fun resp ->
      S.check ~name:"serve response" Obs.Schemas.serve_response
        (J.parse_exn (J.to_string_compact (P.response_to_json resp))))
    [ P.Result
        { id = 7; result = [| [| 4.5; 0.0 |] |]; batch = 3; chosen = None; bound = None };
      P.Result
        { id = 10; result = [| [| 4.5; 0.0 |] |]; batch = 1; chosen = Some "mf3";
          bound = Some 2.5e-40 };
      P.Shed { id = 8; reason = "queue_full" };
      P.Failed { id = 9; error = "boom" } ]

(* RFC 8259 leaves duplicate object keys undefined; the parser rejects
   them outright so last-write-wins smuggling can never reach the
   schema validator (which sees an assoc list and checks the first
   binding only). *)
let test_duplicate_keys_rejected () =
  let rejects s =
    match J.parse s with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "top-level dup" true (rejects {|{"a":1,"a":2}|});
  Alcotest.(check bool) "nested dup" true (rejects {|{"x":{"k":true,"k":false}}|});
  Alcotest.(check bool) "dup inside array element" true
    (rejects {|[1,{"id":1,"id":2}]|});
  Alcotest.(check bool) "same key different depths ok" true
    (not (rejects {|{"a":{"a":1},"b":[{"a":2}]}|}));
  (* the serving layer depends on this: a frame smuggling a second
     "op" must die in the parser, before dispatch *)
  Alcotest.(check bool) "dup op in a request frame" true
    (rejects {|{"schema":"fpan-serve/1","id":1,"op":"add","op":"div"}|})

let test_trace_artifacts () =
  validate_file "TRACE_gemm.json" Obs.Schemas.trace_summary (artifact "TRACE_gemm.json");
  validate_file "TRACE_gemm_chrome.json" Obs.Schemas.chrome_trace
    (artifact "TRACE_gemm_chrome.json");
  validate_file "BENCH_sched_trace.json" Obs.Schemas.trace_summary
    (artifact "BENCH_sched_trace.json");
  validate_file "BENCH_sched_chrome_trace.json" Obs.Schemas.chrome_trace
    (artifact "BENCH_sched_chrome_trace.json")

(* The trace summaries' scheduler telemetry covers the same timed reps
   as their wall window: [overhead.window_wall_s] for fpan_tool trace,
   and for bench-sched --obs the window of the curve point whose
   telemetry the summary carries verbatim (the last). *)
let test_trace_windows () =
  let trace = parse "TRACE_gemm.json" in
  check_busy_within ~name:"TRACE_gemm.json"
    ~window:(num "window_wall_s" (Option.get (J.member "overhead" trace)))
    (list "sched" trace);
  let summary = parse "BENCH_sched_trace.json" in
  let last = List.rev (list "curve" (parse "BENCH_sched.json")) |> List.hd in
  Alcotest.(check string) "summary sched rows = last curve point's telemetry"
    (J.to_string (Option.get (J.member "telemetry" last)))
    (J.to_string (Option.get (J.member "sched" summary)));
  check_busy_within ~name:"BENCH_sched_trace.json" ~window:(num "window_wall_s" last)
    (list "sched" summary)

let test_check_report () =
  let cfg = { Check.Fuzz.default with Check.Fuzz.cases = 40; tiers = [ 2 ]; max_findings = 2 } in
  let report = Check.Fuzz.run cfg in
  S.check ~name:"fpan-check/1" Obs.Schemas.check_report (Check.Fuzz.to_json report)

let test_trace_summary () =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Obs.Metrics.reset ();
  Obs.Trace.with_span Obs.Trace.Kernel "outer" (fun () ->
      Obs.Trace.with_span Obs.Trace.Eft "inner" (fun () -> ()));
  Obs.Metrics.incr (Obs.Metrics.counter "schemas.test.c");
  Obs.Metrics.set (Obs.Metrics.gauge "schemas.test.g") 1.5;
  Obs.Metrics.observe (Obs.Metrics.hist "schemas.test.h") 2.0;
  let dropped = Obs.Trace.dropped () in
  let spans = Obs.Trace.drain () in
  Obs.Trace.set_enabled false;
  let sched =
    Runtime.Sched.with_sched ~workers:2 (fun rt ->
        Runtime.Sched.parallel_for rt ~lo:0 ~hi:64 (fun _ _ -> ());
        Runtime.Sched.stats_json (Runtime.Sched.stats rt))
  in
  let spread = Obs.Sample.to_json (Obs.Sample.summarize [| 1.0; 1.02; 0.99 |]) in
  S.check ~name:"spread" Obs.Schemas.spread spread;
  let overhead =
    J.Obj
      [ ("untraced_wall_s", J.Num 1.0);
        ("untraced_spread", spread);
        ("traced_wall_s", J.Num 1.01);
        ("traced_spread", spread);
        ("overhead_pct", J.Num 1.0);
        ("window_wall_s", J.Num 3.01) ]
  in
  let summary =
    Obs.Export.summary ~workload:"schema-test" ~sched ~extra:[ ("overhead", overhead) ] ~spans
      ~metrics:(Obs.Metrics.snapshot ()) ~dropped ~unbalanced:(Obs.Trace.unbalanced ()) ()
  in
  S.check ~name:"fpan-trace/1" Obs.Schemas.trace_summary summary;
  S.check ~name:"chrome" Obs.Schemas.chrome_trace (Obs.Export.chrome_trace spans);
  (* and the sched rows of the summary validate on their own *)
  match J.member "sched" summary with
  | Some rows -> S.check ~name:"worker rows" (S.List Obs.Schemas.worker_row) rows
  | None -> Alcotest.fail "summary lost the sched block"

(* The validator itself: closed objects, required keys, type and
   constant mismatches all produce violations with paths. *)
let test_validator_rejects () =
  let schema = S.Obj [ S.Req ("a", S.Int); S.Opt ("b", S.Str) ] in
  let ok v = Result.is_ok (S.validate schema v) in
  Alcotest.(check bool) "conforming" true (ok (J.Obj [ ("a", J.Num 3.0) ]));
  Alcotest.(check bool) "optional present" true
    (ok (J.Obj [ ("a", J.Num 3.0); ("b", J.Str "x") ]));
  Alcotest.(check bool) "missing required" false (ok (J.Obj [ ("b", J.Str "x") ]));
  Alcotest.(check bool) "unknown key" false
    (ok (J.Obj [ ("a", J.Num 3.0); ("zzz", J.Null) ]));
  Alcotest.(check bool) "non-integral Int" false (ok (J.Obj [ ("a", J.Num 3.5) ]));
  Alcotest.(check bool) "wrong type" false (ok (J.Obj [ ("a", J.Str "3") ]));
  Alcotest.(check bool) "str const" false
    (Result.is_ok (S.validate (S.Str_const "v1") (J.Str "v2")));
  Alcotest.(check bool) "nullable accepts null" true
    (Result.is_ok (S.validate (S.nullable S.Num) J.Null))

let () =
  Alcotest.run "json_schemas"
    [ ( "artifacts",
        [ Alcotest.test_case "BENCH_fig9/10/11.json" `Quick test_bench_figs;
          Alcotest.test_case "BENCH_sched.json" `Quick test_bench_sched;
          Alcotest.test_case "BENCH_serve.json" `Quick test_bench_serve;
          Alcotest.test_case "BENCH_fuse.json" `Quick test_bench_fuse;
          Alcotest.test_case "BENCH_codec.json" `Quick test_bench_codec;
          Alcotest.test_case "VERIFY_core.json" `Quick test_verify_certificate;
          Alcotest.test_case "CHAOS_report.json" `Quick test_chaos_report;
          Alcotest.test_case "TRACE_gemm(_chrome).json" `Quick test_trace_artifacts;
          Alcotest.test_case "trace telemetry windows" `Quick test_trace_windows;
          Alcotest.test_case "CHECK report (in-process)" `Quick test_check_report;
          Alcotest.test_case "TRACE summary (in-process)" `Quick test_trace_summary ] );
      ( "validator",
        [ Alcotest.test_case "rejections" `Quick test_validator_rejects;
          Alcotest.test_case "serve wire documents" `Quick test_serve_wire_schemas;
          Alcotest.test_case "duplicate keys rejected" `Quick test_duplicate_keys_rejected ] ) ]
