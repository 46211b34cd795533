(* perfbench: one seeded benchmark over kernels, solves and serving.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
     main.exe --write-manifest BENCHMARK.json

   Prints the environment block, a table of every metric (median,
   quartiles, sample count), and as its last line the JSON result:
   end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
   Exits 1 when any correctness gate or accounting invariant fails. *)

module J = Obs.Json_out

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --write-manifest FILE"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref Registry.run_seconds in
  let trace = ref 0 and manifest = ref "" and spans_out = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--spans", Arg.Set_string spans_out, "FILE write the traced run's spans (chrome format)");
      ("--write-manifest", Arg.Set_string manifest, "FILE write BENCHMARK.json (- for stdout) and exit") ]
  in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  if !manifest <> "" then begin
    let text = J.to_string (Registry.manifest ()) ^ "\n" in
    if !manifest = "-" then print_string text
    else Out_channel.with_open_bin !manifest (fun oc -> output_string oc text);
    exit 0
  end;
  if not (List.mem_assoc !workload Registry.workloads) then
    bad (Printf.sprintf "unknown workload %S" !workload);
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if !seconds < 1 then bad "--seconds must be at least 1";
  (* library-internal spans stay off: the traced run records its own
     spans around its calls into each layer *)
  Obs.Trace.set_enabled false;
  Serve.Protocol.ignore_sigpipe ();
  let traced = !trace = 1 in
  let secs = float_of_int !seconds in
  let steal0 = Env.steal_ticks () in
  let r =
    try
      match !workload with
      | "dense" -> Workload.dense ~seed:!seed ~seconds:secs ~trace:traced
      | "serve_rpc" -> Workload.serve Load.Rpc ~seed:!seed ~seconds:secs ~trace:traced
      | _ -> Workload.serve Load.Batch ~seed:!seed ~seconds:secs ~trace:traced
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" !workload (Printexc.to_string e);
      exit 1
  in
  let e2e = r.Workload.e2e @ [ ("rss_mb", Env.peak_rss_mb (), None) ] in
  let env =
    Env.block ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced
      ~sched_workers:r.Workload.sched_workers ~conns:r.Workload.conns
      ~steal:(Env.steal_ticks () - steal0)
  in
  Printf.printf "env %s\n" (J.to_string_compact env);
  let unit_of n = (Registry.find n).Registry.unit_ in
  Printf.printf "%-34s %14s %-8s %14s %14s %6s\n" "metric" "value" "unit" "q1" "q3" "n";
  List.iter
    (fun (n, v, s) ->
      match s with
      | Some s ->
          Printf.printf "%-34s %14.6g %-8s %14.6g %14.6g %6d\n" n v (unit_of n) s.Sample.q1
            s.Sample.q3 s.Sample.n
      | None -> Printf.printf "%-34s %14.6g %-8s %14s %14s %6s\n" n v (unit_of n) "" "" "1")
    e2e;
  List.iter (fun (n, v) -> Printf.printf "%-34s %14.6g %-8s\n" n v (unit_of n)) r.Workload.layers;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) r.Workload.problems;
  if !spans_out <> "" && r.Workload.spans <> [] then
    J.write_file !spans_out (Spans.to_chrome r.Workload.spans);
  let correct = r.Workload.failed = 0 && r.Workload.problems = [] in
  let metric n v = (n, J.Obj [ ("value", J.Num v); ("unit", J.Str (unit_of n)) ]) in
  let metrics =
    if traced then
      List.map
        (fun (m : Registry.metric) -> metric m.name (List.assoc m.name r.Workload.layers))
        Registry.per_layer
    else
      List.map
        (fun (m : Registry.metric) ->
          let _, v, _ = List.find (fun (n, _, _) -> n = m.name) e2e in
          metric m.name v)
        Registry.end_to_end
  in
  print_endline
    (J.to_string_compact
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int r.Workload.attempted));
            ("failed", J.Num (float_of_int r.Workload.failed));
            ("metrics", J.Obj metrics) ]));
  exit (if correct then 0 else 1)
