(* Observability layer: JSON reader/writer round-trips, span stack
   discipline, the zero-cost disabled mode, order-independent metric
   merges, Chrome-trace balance, and the cross-layer guarantee that
   traced flop counts agree with scheduler telemetry. *)

module J = Obs.Json_out
module T = Obs.Trace
module M = Obs.Metrics

let bits = Int64.bits_of_float

(* --- Json_out ------------------------------------------------------- *)

(* Regression: [num] used to print through %.6g, silently truncating
   anything with more than six significant digits (nanosecond
   timestamps, flop totals).  Emission must now round-trip bitwise. *)
let test_num_roundtrip () =
  let cases =
    [ 0.0; -0.0; 1.0; -1.0; 0.1; 1.0 /. 3.0; 123456789.0; 9007199254740991.0;
      1.23456789012345e18; Float.ldexp 1.0 60; Float.max_float; Float.min_float;
      4.9e-324; -2.718281828459045e-7; 3.141592653589793 ]
  in
  List.iter
    (fun f ->
      match J.parse_exn (J.to_string (J.Num f)) with
      | J.Num g ->
          Alcotest.(check int64) (Printf.sprintf "num %h" f) (bits f) (bits g)
      | _ -> Alcotest.fail "not a number")
    cases;
  Alcotest.(check string) "integral stays integral" "123456789"
    (String.trim (J.to_string (J.Num 123456789.0)));
  (* inf/nan have no JSON literal: emitted as null *)
  Alcotest.(check string) "nan is null" "null" (String.trim (J.to_string (J.Num Float.nan)));
  Alcotest.(check string) "inf is null" "null"
    (String.trim (J.to_string (J.Num Float.infinity)))

let test_string_escaping () =
  let cases =
    [ ""; "plain"; "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x1f"; "a\"b\\c";
      "line1\nline2"; "nul\x00mid"; String.init 32 Char.chr; "caf\xc3\xa9" ]
  in
  List.iter
    (fun s ->
      match J.parse_exn (J.to_string (J.Str s)) with
      | J.Str s' -> Alcotest.(check string) (Printf.sprintf "escape %S" s) s s'
      | _ -> Alcotest.fail "not a string")
    cases;
  (* \uXXXX escapes decode to UTF-8 *)
  (match J.parse_exn {|"éA"|} with
  | J.Str s -> Alcotest.(check string) "unicode escape" "\xc3\xa9A" s
  | _ -> Alcotest.fail "not a string")

let json_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ return J.Null;
                map (fun b -> J.Bool b) bool;
                map (fun f -> J.Num (if Float.is_finite f then f else 0.0)) float;
                map (fun s -> J.Str s) (string_size (int_bound 12)) ]
          else
            oneof
              [ map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun kvs ->
                    (* the parser rejects duplicate keys as malformed, so
                       a round-trippable document can't contain them:
                       keep the first binding of each key *)
                    let seen = Hashtbl.create 8 in
                    J.Obj
                      (List.filter
                         (fun (k, _) ->
                           if Hashtbl.mem seen k then false
                           else begin
                             Hashtbl.add seen k ();
                             true
                           end)
                         kvs))
                  (list_size (int_bound 4)
                     (pair (string_size (int_bound 8)) (self (n / 2)))) ])
        (min n 12))

(* structural equality with bitwise float comparison *)
let rec json_eq a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Num x, J.Num y -> bits x = bits y
  | J.Str x, J.Str y -> String.equal x y
  | J.List x, J.List y -> List.length x = List.length y && List.for_all2 json_eq x y
  | J.Obj x, J.Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && json_eq v v') x y
  | _ -> false

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string doc) = doc"
    (QCheck.make json_gen)
    (fun doc ->
      json_eq doc (J.parse_exn (J.to_string doc))
      (* the single-line wire emitter parses back identically too *)
      && json_eq doc (J.parse_exn (J.to_string_compact doc)))

(* --- Trace: stack discipline ---------------------------------------- *)

let with_tracing f =
  T.set_enabled true;
  T.clear ();
  Fun.protect ~finally:(fun () -> T.set_enabled false; T.clear ()) f

let test_span_nesting () =
  with_tracing (fun () ->
      T.begin_span T.Kernel "outer";
      T.begin_span T.Eft "inner";
      T.end_span ();
      T.end_span_f ~arg_name:"flops" ~arg:42.0;
      let spans = T.drain () in
      Alcotest.(check int) "two spans" 2 (List.length spans);
      let outer = List.find (fun s -> s.T.name = "outer") spans in
      let inner = List.find (fun s -> s.T.name = "inner") spans in
      Alcotest.(check int) "outer depth" 0 outer.T.depth;
      Alcotest.(check int) "inner depth" 1 inner.T.depth;
      Alcotest.(check bool) "inner starts inside" true (inner.T.t0_ns >= outer.T.t0_ns);
      Alcotest.(check bool) "inner ends inside" true (inner.T.t1_ns <= outer.T.t1_ns);
      Alcotest.(check string) "arg lands on outer" "flops" outer.T.arg_name;
      Alcotest.(check (float 0.0)) "arg value" 42.0 outer.T.arg;
      Alcotest.(check int) "balanced" 0 (T.unbalanced ()))

let test_unbalanced_end () =
  with_tracing (fun () ->
      T.end_span ();
      Alcotest.(check int) "unbalanced counted" 1 (T.unbalanced ());
      Alcotest.(check int) "nothing recorded" 0 (List.length (T.drain ())))

let test_with_span_exception () =
  with_tracing (fun () ->
      (try T.with_span T.Io "doomed" (fun () -> failwith "boom") with Failure _ -> ());
      let spans = T.drain () in
      Alcotest.(check int) "closed on exception" 1 (List.length spans);
      Alcotest.(check int) "balanced" 0 (T.unbalanced ()))

(* Random balanced begin/end programs against a reference stack: the
   drained (name, depth) multiset must match the simulation exactly. *)
let prop_stack_discipline =
  QCheck.Test.make ~count:200 ~name:"span stack matches reference simulation"
    QCheck.(list_of_size Gen.(int_bound 60) bool)
    (fun pushes ->
      T.set_enabled true;
      T.clear ();
      let stack = ref [] and completed = ref [] and fresh = ref 0 in
      let push () =
        let name = Printf.sprintf "n%d" !fresh in
        incr fresh;
        T.begin_span T.Fuzz name;
        stack := (name, List.length !stack) :: !stack
      in
      let pop () =
        match !stack with
        | [] -> ()
        | top :: rest ->
            T.end_span ();
            completed := top :: !completed;
            stack := rest
      in
      List.iter (fun b -> if b then push () else pop ()) pushes;
      while !stack <> [] do pop () done;
      let got =
        T.drain () |> List.map (fun s -> (s.T.name, s.T.depth)) |> List.sort compare
      in
      let expect = List.sort compare !completed in
      T.set_enabled false;
      got = expect && T.unbalanced () = 0)

let test_disabled_mode () =
  T.set_enabled false;
  T.clear ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.begin_span T.Kernel "never";
    T.end_span ()
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "no allocation on disabled fast path" 0.0 (w1 -. w0);
  Alcotest.(check int) "no spans" 0 (List.length (T.drain ()));
  Alcotest.(check int) "no unbalanced" 0 (T.unbalanced ());
  Alcotest.(check int) "no dropped" 0 (T.dropped ())

(* --- Metrics -------------------------------------------------------- *)

let test_metrics_basic () =
  M.reset ();
  let c = M.counter "t.obs.c" in
  M.add c 5;
  M.incr c;
  let g = M.gauge "t.obs.g" in
  M.set g 2.5;
  let h = M.hist "t.obs.h" in
  M.observe h 3.0;
  M.observe h 3.5;
  M.observe h 1e30;
  let snap = M.snapshot () in
  (match List.assoc "t.obs.c" snap with
  | M.Counter n -> Alcotest.(check int) "counter" 6 n
  | _ -> Alcotest.fail "kind");
  (match List.assoc "t.obs.g" snap with
  | M.Gauge v -> Alcotest.(check (float 0.0)) "gauge" 2.5 v
  | _ -> Alcotest.fail "kind");
  (match List.assoc "t.obs.h" snap with
  | M.Hist h ->
      Alcotest.(check int) "hist count" 3 h.M.count;
      Alcotest.(check int) "3.0 and 3.5 share a binade bucket" 2
        h.M.buckets.(M.bucket_of ~lo_exp:h.M.lo_exp ~hi_exp:h.M.hi_exp 3.0)
  | _ -> Alcotest.fail "kind");
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Obs.Metrics.gauge: t.obs.c has another kind") (fun () ->
      ignore (M.gauge "t.obs.c"))

let test_metrics_multidomain () =
  M.reset ();
  let per_domain = [| 1000; 2000; 3000; 4000 |] in
  let doms =
    Array.map
      (fun n ->
        Domain.spawn (fun () ->
            let c = M.counter "t.obs.md" in
            let h = M.hist "t.obs.mdh" in
            for i = 1 to n do
              M.incr c;
              M.observe h (Float.of_int i)
            done))
      per_domain
  in
  Array.iter Domain.join doms;
  let snap = M.snapshot () in
  (match List.assoc "t.obs.md" snap with
  | M.Counter n -> Alcotest.(check int) "sharded counter sums" 10000 n
  | _ -> Alcotest.fail "kind");
  match List.assoc "t.obs.mdh" snap with
  | M.Hist h -> Alcotest.(check int) "sharded histogram sums" 10000 h.M.count
  | _ -> Alcotest.fail "kind"

(* Synthetic snapshots: merging in any order gives the same counters
   and bucket arrays bitwise (int sums and max are order-independent;
   float sums agree to rounding, checked loosely). *)
let snapshot_gen =
  let open QCheck.Gen in
  let hist_of obs =
    List.fold_left
      (fun (h : M.histogram) v ->
        let b = M.bucket_of ~lo_exp:h.M.lo_exp ~hi_exp:h.M.hi_exp v in
        let buckets = Array.copy h.M.buckets in
        buckets.(b) <- buckets.(b) + 1;
        { h with
          M.buckets = buckets;
          count = h.M.count + 1;
          sum = h.M.sum +. v;
          max_v = Float.max h.M.max_v v })
      { M.lo_exp = -4; hi_exp = 4; buckets = Array.make 10 0; count = 0; sum = 0.0; max_v = 0.0 }
      obs
  in
  (* a fixed name pool so snapshots overlap (the interesting case),
     with the kind determined by the name so merges are well-typed *)
  let entry =
    oneof
      [ map (fun n -> ("m.counter", M.Counter n)) (int_bound 1000);
        map (fun f -> ("m.gauge", M.Gauge f)) (float_bound_inclusive 100.0);
        map
          (fun vs -> ("m.hist", M.Hist (hist_of vs)))
          (list_size (int_bound 20) (float_bound_inclusive 64.0)) ]
  in
  list_size (int_bound 4) entry
  |> map (fun kvs ->
         (* registry snapshots are sorted and name-unique *)
         List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs)

let counters_and_buckets snap =
  List.map
    (fun (name, v) ->
      match v with
      | M.Counter n -> (name, `C n)
      | M.Gauge g -> (name, `G (bits g))
      | M.Hist h -> (name, `H (Array.to_list h.M.buckets, h.M.count, bits h.M.max_v)))
    snap

let prop_merge_order_independent =
  QCheck.Test.make ~count:300 ~name:"metric merge is order-independent"
    QCheck.(triple (make snapshot_gen) (make snapshot_gen) (make snapshot_gen))
    (fun (a, b, c) ->
      let l = M.merge (M.merge a b) c and r = M.merge a (M.merge b c) in
      let comm_ab = M.merge a b and comm_ba = M.merge b a in
      counters_and_buckets l = counters_and_buckets r
      && counters_and_buckets comm_ab = counters_and_buckets comm_ba)

(* --- Chrome trace --------------------------------------------------- *)

let check_chrome_balance doc span_count =
  Obs.Schema.check ~name:"chrome trace" Obs.Schemas.chrome_trace doc;
  let events =
    match J.member "traceEvents" doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  let depth : (int, int) Hashtbl.t = Hashtbl.create 7 in
  let begins = ref 0 and ends = ref 0 in
  List.iter
    (fun ev ->
      let ph = match J.member "ph" ev with Some (J.Str s) -> s | _ -> "?" in
      let tid =
        match J.member "tid" ev with Some (J.Num n) -> int_of_float n | _ -> -1
      in
      let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
      match ph with
      | "B" ->
          incr begins;
          Hashtbl.replace depth tid (d + 1)
      | "E" ->
          incr ends;
          Alcotest.(check bool) "E never outruns B" true (d > 0);
          Hashtbl.replace depth tid (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter (fun tid d -> Alcotest.(check int) (Printf.sprintf "tid %d closed" tid) 0 d) depth;
  Alcotest.(check int) "one B per span" span_count !begins;
  Alcotest.(check int) "one E per span" span_count !ends

let test_chrome_roundtrip () =
  with_tracing (fun () ->
      (* a nested burst, including zero-width spans that tie on the
         coarse timestamp — depth must still keep B/E balanced *)
      for i = 0 to 19 do
        T.begin_span T.Kernel "burst";
        T.begin_span T.Eft (Printf.sprintf "leaf%d" (i mod 3));
        T.end_span ();
        T.end_span ()
      done;
      let spans = T.drain () in
      Alcotest.(check int) "all spans recorded" 40 (List.length spans);
      let doc = J.parse_exn (J.to_string (Obs.Export.chrome_trace spans)) in
      check_chrome_balance doc 40)

(* Multi-domain: tiles traced from worker domains must still yield a
   balanced per-tid interleaving, and the flops recorded on gemm.tile
   spans must agree bitwise with the scheduler's telemetry. *)
let test_traced_gemm_agrees_with_sched () =
  let module K = Blas.Kernels.Make_batched (Blas.Instances.Mf2) in
  let n = 48 in
  let rng = Random.State.make [| 17; n |] in
  let vec len = K.vec_of_floats (Array.init len (fun _ -> Random.State.float rng 2.0 -. 1.0)) in
  let a = vec (n * n) and b = vec (n * n) in
  with_tracing (fun () ->
      Runtime.Sched.with_sched ~workers:4 (fun rt ->
          Runtime.Sched.reset_stats rt;
          let c = K.V.create (n * n) in
          K.gemm_rt rt ~tile:(16, 16) ~m:n ~n ~k:n ~a ~b ~c ();
          let stats = Runtime.Sched.stats rt in
          let spans = T.drain () in
          let tile_arg_sum =
            List.fold_left
              (fun acc s -> if s.T.name = "gemm.tile" then acc +. s.T.arg else acc)
              0.0 spans
          in
          let sched_flops =
            Array.fold_left (fun acc s -> acc + s.Runtime.Sched.tile_flops) 0 stats
          in
          Alcotest.(check int) "span flops = sched flops = n^3" (n * n * n)
            (int_of_float tile_arg_sum);
          Alcotest.(check int) "sched flops" (n * n * n) sched_flops;
          let doc = J.parse_exn (J.to_string (Obs.Export.chrome_trace spans)) in
          check_chrome_balance doc (List.length spans)))

(* Fuzz instrumentation: per-class case counters must sum to the
   campaign's case totals. *)
let test_fuzz_counters () =
  M.reset ();
  with_tracing (fun () ->
      let cfg =
        { Check.Fuzz.default with Check.Fuzz.cases = 64; tiers = [ 2 ]; max_findings = 1 }
      in
      let r = Check.Fuzz.run cfg in
      let counted =
        List.fold_left
          (fun acc (name, v) ->
            match v with
            | M.Counter n when String.length name >= 10 && String.sub name 0 10 = "fuzz.cases" ->
                acc + n
            | _ -> acc)
          0 (M.snapshot ())
      in
      Alcotest.(check int) "per-class counters sum to case total"
        (r.Check.Fuzz.scalar_cases + r.Check.Fuzz.vector_cases)
        counted;
      let spans = T.drain () in
      let tier = List.find (fun s -> s.T.name = "fuzz.tier2") spans in
      Alcotest.(check string) "tier span carries case count" "cases" tier.T.arg_name;
      Alcotest.(check (float 0.0)) "tier case count"
        (Float.of_int (r.Check.Fuzz.scalar_cases + r.Check.Fuzz.vector_cases))
        tier.T.arg)

(* --- Sample ------------------------------------------------------- *)

module Sm = Obs.Sample

(* Quartiles under linear interpolation between closest ranks, worked
   by hand: sorted [1 2 3 4 5] puts q1/median/q3 at ranks 1/2/3 exactly;
   sorted [1 2 3 4] puts them at positions 0.75/1.5/2.25. *)
let test_sample_quartiles () =
  let exact = Alcotest.float 0.0 in
  let odd = Sm.summarize [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check exact "odd median" 3.0 odd.Sm.median;
  Alcotest.check exact "odd q1" 2.0 odd.Sm.q1;
  Alcotest.check exact "odd q3" 4.0 odd.Sm.q3;
  Alcotest.(check int) "odd n" 5 odd.Sm.n;
  Alcotest.check exact "odd total" 15.0 odd.Sm.total;
  let even_xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  let even = Sm.summarize even_xs in
  Alcotest.check exact "even median" 2.5 even.Sm.median;
  Alcotest.check exact "even q1" 1.75 even.Sm.q1;
  Alcotest.check exact "even q3" 3.25 even.Sm.q3;
  Alcotest.check exact "even total" 10.0 even.Sm.total;
  Alcotest.check exact "p0 is the minimum" 1.0 (Sm.quantile even_xs 0.0);
  Alcotest.check exact "p1 is the maximum" 4.0 (Sm.quantile even_xs 1.0);
  Alcotest.(check (float 1e-12)) "p90" 3.7 (Sm.quantile even_xs 0.9);
  Alcotest.(check (array (float 0.0))) "input not reordered" [| 4.0; 1.0; 3.0; 2.0 |] even_xs;
  Alcotest.(check bool) "no samples" true (Float.is_nan (Sm.quantile [||] 0.5));
  Alcotest.check exact "single sample" 7.0 (Sm.quantile [| 7.0 |] 0.25);
  (* a rate's spread is the wall spread mapped through work / wall *)
  match J.member "q1" (Sm.to_json ~work:13.0 even), J.member "q3" (Sm.to_json ~work:13.0 even) with
  | Some (J.Num q1), Some (J.Num q3) ->
      Alcotest.check exact "rate q1" (13.0 /. 3.25) q1;
      Alcotest.check exact "rate q3" (13.0 /. 1.75) q3
  | _ -> Alcotest.fail "spread lacks q1/q3"

(* The call order of [time]: one untimed warmup, then the hook, then
   the timed reps; the result is the last rep's. *)
let test_sample_time_protocol () =
  let log = ref [] and calls = ref 0 in
  let spin_ms () =
    let t0 = Obs.Clock.now_ns () in
    while Obs.Clock.now_ns () -. t0 < 1e6 do () done
  in
  let f () =
    incr calls;
    log := `Call !calls :: !log;
    spin_ms ();
    !calls
  in
  let t0 = Obs.Clock.now_ns () in
  let s, last = Sm.time ~reps:4 ~after_warmup:(fun () -> log := `Hook :: !log) f in
  let outer = (Obs.Clock.now_ns () -. t0) *. 1e-9 in
  Alcotest.(check bool) "warmup, hook, then 4 timed calls" true
    (List.rev !log = [ `Call 1; `Hook; `Call 2; `Call 3; `Call 4; `Call 5 ]);
  Alcotest.(check int) "result of the last rep" 5 last;
  Alcotest.(check int) "n = reps" 4 s.Sm.n;
  (* every rep spins >= 1 ms, and the reps fit inside the outer window *)
  Alcotest.(check bool) "q1 >= 1 ms" true (s.Sm.q1 >= 1e-3);
  Alcotest.(check bool) "total >= 4 ms" true (s.Sm.total >= 4e-3);
  Alcotest.(check bool) "total <= outer wall" true (s.Sm.total <= outer);
  Alcotest.(check bool) "quartiles ordered" true (s.Sm.q1 <= s.Sm.median && s.Sm.median <= s.Sm.q3);
  Alcotest.check_raises "reps = 0 is refused" (Invalid_argument "Obs.Sample.time: reps = 0 < 1")
    (fun () -> ignore (Sm.time ~reps:0 (fun () -> ())))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "num round-trip" `Quick test_num_roundtrip;
          Alcotest.test_case "string escaping" `Quick test_string_escaping;
          q prop_json_roundtrip ] );
      ( "trace",
        [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "unbalanced end" `Quick test_unbalanced_end;
          Alcotest.test_case "with_span exception" `Quick test_with_span_exception;
          q prop_stack_discipline;
          Alcotest.test_case "disabled mode is free" `Quick test_disabled_mode ] );
      ( "metrics",
        [ Alcotest.test_case "basic registry" `Quick test_metrics_basic;
          Alcotest.test_case "multi-domain sharding" `Quick test_metrics_multidomain;
          q prop_merge_order_independent ] );
      ( "export",
        [ Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "traced gemm vs sched telemetry" `Quick
            test_traced_gemm_agrees_with_sched;
          Alcotest.test_case "fuzz counters" `Quick test_fuzz_counters ] );
      ( "sample",
        [ Alcotest.test_case "quartiles by hand" `Quick test_sample_quartiles;
          Alcotest.test_case "time: warmup, hook, reps" `Quick test_sample_time_protocol ] ) ]
