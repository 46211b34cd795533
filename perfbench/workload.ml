(* Workload runs: set-up (repeated, median reported), the timed
   window, correctness gates, and the metrics each run reports. *)

module P = Serve.Protocol
module J = Obs.Json_out
module Sched = Runtime.Sched

type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed gates and broken invariants *)
  e2e : (string * float * Sample.summary option) list;
  layers : (string * float) list;
  sched_workers : int;
  conns : int;
  spans : Spans.t list;
}

let now = Obs.Clock.now_ns
let setup_reps = 3

(* Run [make] [setup_reps] times, tearing down all but the last. *)
let repeated_setup make teardown =
  let rec go k times =
    let t0 = now () in
    let s = make k in
    let times = ((now () -. t0) /. 1e9) :: times in
    if k + 1 < setup_reps then begin
      teardown s;
      go (k + 1) times
    end
    else (s, List.rev times)
  in
  go 0 []

let summary_value xs = (Sample.median xs, Some (Sample.summary xs))

let sched_delta (a : Sched.worker_stats array) (b : Sched.worker_stats array) =
  let sum f arr = Array.fold_left (fun acc w -> acc +. f w) 0.0 arr in
  let d f = sum f b -. sum f a in
  let busy = d (fun w -> w.Sched.busy_seconds) and idle = d (fun w -> w.Sched.idle_seconds) in
  [ ("runtime.busy_frac", if busy +. idle > 0.0 then busy /. (busy +. idle) else 0.0);
    ("runtime.idle_s", idle);
    ("runtime.steals", d (fun w -> float_of_int w.Sched.steals));
    ("runtime.tasks", d (fun w -> float_of_int w.Sched.tasks_executed)) ]

let busy_s (w : Sched.worker_stats array) =
  Array.fold_left (fun acc s -> acc +. s.Sched.busy_seconds) 0.0 w

(* --- dense ---------------------------------------------------------- *)

let median_of f rounds = Sample.median (List.map f rounds)

(* Kernel- and solve-level metrics from a list of rounds. *)
let dense_layers (rounds : Dense.round list) ~seq_ns =
  let gops ops f = float_of_int ops /. median_of f rounds in
  let n_rounds = float_of_int (List.length rounds) in
  [ ("blas.gemm_mf2_gops", gops (Dense.cube Dense.gemm2_n) (fun r -> r.Dense.gemm2));
    ("blas.gemm_mf4_gops", gops (Dense.cube Dense.gemm4_n) (fun r -> r.Dense.gemm4));
    ("blas.gemv_mf3_gops", gops (Dense.gemv3_n * Dense.gemv3_n) (fun r -> r.Dense.gemv3));
    ("blas.dot_mf2_gops", gops Dense.dot2_n (fun r -> r.Dense.dot2));
    ("blas.axpy_mf4_gops", gops Dense.axpy4_n (fun r -> r.Dense.axpy4));
    ( "blas.minor_words_per_op",
      List.fold_left (fun a r -> a +. r.Dense.words) 0.0 rounds
      /. (n_rounds *. float_of_int Dense.kernel_ops) );
    ("runtime.speedup_2w", seq_ns /. median_of (fun r -> r.Dense.gemm2) rounds);
    ("linalg.solve_ms", median_of (fun r -> r.Dense.solve) rounds /. 1e6);
    ("linalg.refine_iters", median_of (fun r -> float_of_int r.Dense.iters) rounds) ]

let dense_failures rounds =
  List.concat_map (fun r -> r.Dense.failures) rounds

type dense_env = { sched : Sched.t; sched1 : Sched.t; bufs : Dense.bufs }

(* Schedulers, buffers, and one full round as the lazy set-up (code
   paths, heap growth). *)
let dense_setup ~seed k =
  let sched = Sched.create ~workers:2 () in
  let sched1 = Sched.create ~workers:1 () in
  let bufs = Dense.alloc () in
  Dense.fill bufs ~seed ~stream:(1000 + k) 0;
  let _, o = Dense.run sched bufs in
  match Dense.check ~sched1 ~full:false ~seed ~k bufs o with
  | [], _ -> { sched; sched1; bufs }
  | fails, _ -> failwith ("warmup round failed: " ^ String.concat ", " fails)

let dense_teardown d =
  Sched.shutdown d.sched;
  Sched.shutdown d.sched1

let with_f64_frac layers =
  let get n = List.assoc n layers in
  ("blas.gemm_mf2_frac_f64", get "blas.gemm_mf2_gops" /. get "blas.gemm_f64_gops") :: layers

(* The dense layers of a serve workload's traced run: one second of
   dense rounds on a temporary 2-worker scheduler, plus the fixed
   probe. *)
let dense_probe_layers ~seed =
  let d = dense_setup ~seed 100 in
  Fun.protect
    ~finally:(fun () -> dense_teardown d)
    (fun () ->
      let w0 = Sched.stats d.sched in
      let rounds, seq_ns =
        Dense.window ~sched:d.sched ~sched1:d.sched1 ~bufs:d.bufs ~seed ~stream:3000
          ~seconds:1.0 ()
      in
      let rt = sched_delta w0 (Sched.stats d.sched) in
      let probe = Probe.run ~seed d.sched in
      (with_f64_frac (dense_layers rounds ~seq_ns @ probe) @ rt, dense_failures rounds))

(* --- serve ---------------------------------------------------------- *)

let conns = 2
let depth = function Load.Rpc -> 1 | Load.Batch -> 32
let warmup_per_conn = function Load.Rpc -> 300 | Load.Batch -> 64

(* Counters read from [Server.stats_doc] and [Sched.stats]. *)
type counters = {
  completed : float;
  batches : float;
  hist : (float * float) list;  (** batch size, count *)
  hits : float;
  misses : float;
  shed : float;
  errors : float;
  sla_requests : float;
  escalations : float;
  chosen : (string * float) list;
  queue_hwm : float;
  workers : Sched.worker_stats array;
}

let member path doc =
  List.fold_left (fun d k -> Option.bind d (J.member k)) (Some doc) path

let num path doc = Option.value (Option.bind (member path doc) J.to_num) ~default:0.0

let rows path key value doc =
  Option.value (Option.bind (member path doc) J.to_list) ~default:[]
  |> List.map (fun r -> (key r, num [ value ] r))

let snapshot server sched =
  let d = Serve.Server.stats_doc server in
  { completed = num [ "completed" ] d;
    batches = num [ "batches" ] d;
    hist = rows [ "batch_histogram" ] (num [ "size" ]) "count" d;
    hits = num [ "cache"; "hits" ] d;
    misses = num [ "cache"; "misses" ] d;
    shed = num [ "shed_full" ] d +. num [ "shed_deadline" ] d +. num [ "shed_closed" ] d;
    errors = num [ "errors" ] d;
    sla_requests = num [ "sla"; "requests" ] d;
    escalations = num [ "sla"; "escalations" ] d;
    chosen =
      rows [ "sla"; "chosen" ]
        (fun r -> Option.value (Option.bind (J.member "chosen" r) J.to_str) ~default:"")
        "count" d;
    queue_hwm = num [ "queue_max_depth" ] d;
    workers = Sched.stats sched }

(* Σ size x count over the histogram rows that moved in the window. *)
let hist_delta c0 c1 =
  List.fold_left
    (fun (reqs, groups) (size, n) ->
      let before = Option.value (List.assoc_opt size c0.hist) ~default:0.0 in
      (reqs +. (size *. (n -. before)), groups +. (n -. before)))
    (0.0, 0.0) c1.hist

type served = {
  sched : Sched.t;
  server : Serve.Server.t;
  fds : Unix.file_descr list;
}

let sock_path () = Printf.sprintf "perfbench-%d.sock" (Unix.getpid ())

let drive ?spans kind ~seed ~streams ~t_end ~limit fds =
  match kind with
  | Load.Rpc -> Load.rpc ?spans ~kind ~seed ~streams ~t_end ~limit fds
  | Load.Batch ->
      Load.pipelined
        ?spans:(Option.map (fun a -> a.(0)) spans)
        ~kind ~seed ~streams ~depth:(depth kind) ~t_end ~limit fds

let serve_teardown s =
  List.iter Unix.close s.fds;
  Serve.Server.stop s.server;
  Sched.shutdown s.sched

(* Server defaults (queue 64, max batch 32, 200 us window, cache off)
   on a 1-worker scheduler, connections open, fixed warmup traffic. *)
let serve_setup kind ~seed k =
  let sched = Sched.create ~workers:1 () in
  let path = sock_path () in
  let server = Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path) () in
  let s = { sched; server; fds = List.init conns (fun _ -> Load.connect path) } in
  match
    drive kind ~seed ~streams:(List.init conns (fun i -> 1000 + (10 * k) + i))
      ~t_end:infinity ~limit:(warmup_per_conn kind) s.fds
  with
  | recs when List.for_all (fun r -> r.Load.outcome = 'o') recs -> s
  | _ ->
      serve_teardown s;
      failwith "warmup request refused"
  | exception e ->
      serve_teardown s;
      raise e

type window = {
  recs : Load.record list;
  t_start : float;
  t_end : float;  (** load stops being offered *)
  t_stop : float;  (** last reply in *)
  c0 : counters;
  c1 : counters;
}

(* The window starts and ends quiescent (nothing in flight), so the
   counter differences cover exactly the requests the client saw. *)
let serve_window ?spans s kind ~seed ~streams ~seconds =
  let c0 = snapshot s.server s.sched in
  let t_start = now () in
  let t_end = t_start +. (seconds *. 1e9) in
  let recs = drive ?spans kind ~seed ~streams ~t_end ~limit:max_int s.fds in
  let t_stop = now () in
  { recs; t_start; t_end; t_stop; c0; c1 = snapshot s.server s.sched }

let ok_recs w = List.filter (fun r -> r.Load.outcome = 'o') w.recs
let ok_latencies w = List.map (fun r -> (r.Load.t1 -. r.Load.t0) /. 1e3) (ok_recs w)

(* Accounting invariants over one window. *)
let invariants w =
  let ok = float_of_int (List.length (ok_recs w)) in
  let count c = float_of_int (List.length (List.filter (fun r -> r.Load.outcome = c) w.recs)) in
  let completed = w.c1.completed -. w.c0.completed in
  let sized, _ = hist_delta w.c0 w.c1 in
  List.filter_map
    (fun (name, holds) -> if holds then None else Some name)
    [ ("server completed = client ok", completed = ok);
      ("sum of batch size x count = server completed", sized = completed);
      ("server shed = client shed", w.c1.shed -. w.c0.shed = count 's');
      ("server errors = client failures", w.c1.errors -. w.c0.errors = count 'f');
      ("cache hits = 0", w.c1.hits -. w.c0.hits = 0.0) ]

(* The scalar reference answer to a request: [Batcher.eval_one]'s
   result, which for an SLA request is the escalation ladder's; that
   also names the chosen rung and its certified bound. *)
let reference (req : P.request) =
  match req.P.sla with
  | None -> Result.map (fun r -> (r, None, None)) (Serve.Batcher.eval_one req)
  | Some _ ->
      Result.map
        (fun (o : Adaptive.Escalate.outcome) -> (o.result, Some o.chosen, Some o.bound))
        (Serve.Batcher.eval_adaptive req)

(* Every answer must be bitwise what the reference computes for the
   same (regenerated) request, settled on the same rung. *)
let mismatches kind ~seed w =
  List.length
    (List.filter
       (fun r ->
         r.Load.outcome <> 'o'
         ||
         match reference (Load.request kind ~seed ~stream:r.Load.stream r.Load.seq) with
         | Ok (res, chosen, _) ->
             not (Int64.equal (Load.digest res) r.Load.dig && chosen = r.Load.chosen)
         | Error _ -> true)
       w.recs)

let serve_e2e w =
  let ok = ok_recs w in
  let secs t = (t -. w.t_start) /. 1e9 in
  let span = secs w.t_end in
  let rates weight =
    Sample.slice_rates ~t0:0.0 ~t1:span ~len:1.0
      (List.map (fun r -> (secs r.Load.t1, weight r)) ok)
  in
  let lat = List.map (fun r -> (r.Load.t1 -. r.Load.t0) /. 1e3) ok in
  let gops = List.map (fun x -> x /. 1e9) (rates (fun r -> float_of_int r.Load.nops)) in
  [ (let v, s = summary_value gops in ("gops", v, s));
    (let v, s = summary_value (rates (fun _ -> 1.0)) in ("rps", v, s));
    ("lat_p50_us", Sample.quantile lat 0.5, Some (Sample.summary lat));
    ("lat_p90_us", Sample.quantile lat 0.9, None) ]

(* Server-side codec cost, modelled by the benchmark's own calls into
   the protocol on a sample of the window's requests: decode of the
   request as the server receives it, encode of the reply it sends. *)
let server_codec kind ~seed w =
  let ok = Array.of_list (ok_recs w) in
  let n = Array.length ok in
  let k = max 1 (n / 256) in
  let dec = ref [] and enc = ref [] in
  Array.iteri
    (fun i r ->
      if i mod k = 0 then begin
        let req = Load.request kind ~seed ~stream:r.Load.stream r.Load.seq in
        let wire = J.to_string_compact (P.request_to_json req) in
        let t0 = now () in
        ignore (P.request_of_json (J.parse_exn wire));
        let t1 = now () in
        match reference req with
        | Ok (result, chosen, bound) ->
            let resp = P.Result { id = req.P.id; result; batch = 1; chosen; bound } in
            let t2 = now () in
            ignore (P.frame_of_string (J.to_string_compact (P.response_to_json resp)));
            let t3 = now () in
            dec := ((t1 -. t0) /. 1e3) :: !dec;
            enc := ((t3 -. t2) /. 1e3) :: !enc
        | Error _ -> ()
      end)
    ok;
  (Sample.median !dec, Sample.median !enc)

let serve_layers kind ~seed w sp =
  let ok = ok_recs w in
  let n_ok = float_of_int (List.length ok) in
  let selfs = Spans.self_times sp in
  let mean f = List.fold_left (fun a r -> a +. f r) 0.0 ok /. n_ok in
  let completed = w.c1.completed -. w.c0.completed in
  let eval_us = (busy_s w.c1.workers -. busy_s w.c0.workers) /. completed *. 1e6 in
  let q_enc = Spans.mean_self_us selfs "client.encode" in
  let r_dec = Spans.mean_self_us selfs "client.decode" in
  let io = Spans.total_self_ns selfs "client.io" /. n_ok /. 1e3 in
  let q_dec, r_enc = server_codec kind ~seed w in
  let p50 = Sample.quantile (ok_latencies w) 0.5 in
  (* queue-weighted attribution: a request waits behind the layer work
     of every request in flight, so per-request costs count once per
     in-flight request *)
  let inflight = float_of_int (conns * depth kind) in
  let codec = q_enc +. r_dec +. q_dec +. r_enc in
  let explained = inflight *. (codec +. eval_us +. io) in
  let sized, groups = hist_delta w.c0 w.c1 in
  let sla = w.c1.sla_requests -. w.c0.sla_requests in
  let per_sla x = if sla > 0.0 then x /. sla else 0.0 in
  let chosen tier =
    let get c = Option.value (List.assoc_opt tier c.chosen) ~default:0.0 in
    per_sla (get w.c1 -. get w.c0)
  in
  let hits = w.c1.hits -. w.c0.hits and misses = w.c1.misses -. w.c0.misses in
  [ ("self.protocol", inflight *. codec /. p50);
    ("self.batcher_eval", inflight *. eval_us /. p50);
    ("self.client_io", inflight *. io /. p50);
    ("self.unattributed", (p50 -. explained) /. p50);
    ("server.unattributed_us", p50 -. explained);
    ("protocol.req_encode_us", q_enc);
    ("protocol.req_decode_us", q_dec);
    ("protocol.resp_encode_us", r_enc);
    ("protocol.resp_decode_us", r_dec);
    ("protocol.req_bytes", mean (fun r -> float_of_int r.Load.qbytes));
    ("protocol.resp_bytes", mean (fun r -> float_of_int r.Load.rbytes));
    ("batcher.mean_batch", if groups > 0.0 then sized /. groups else 0.0);
    ("batcher.batches", w.c1.batches -. w.c0.batches);
    ("batcher.eval_us_per_req", eval_us);
    ("admission.queue_hwm", w.c1.queue_hwm);
    ("adaptive.escalations_per_req", per_sla (w.c1.escalations -. w.c0.escalations));
    ("adaptive.chosen_mf2", chosen "mf2");
    ("adaptive.chosen_mf3", chosen "mf3");
    ("adaptive.chosen_mf4", chosen "mf4");
    ("adaptive.chosen_bigfloat", chosen "bigfloat");
    ("cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0) ]

let latency_tail lat =
  [ ("lat_p99_us", Sample.quantile lat 0.99);
    ("lat_p99_beyond", float_of_int (Sample.beyond lat 0.99)) ]

(* The serving layers of the dense workload's traced run: one second
   of traced serve_rpc traffic.  The self.* shares stay the dense
   round's own. *)
let serve_probe_layers ~seed =
  let s = serve_setup Load.Rpc ~seed 100 in
  Fun.protect
    ~finally:(fun () -> serve_teardown s)
    (fun () ->
      let sp = Array.init conns (fun _ -> Spans.create ()) in
      let w = serve_window ~spans:sp s Load.Rpc ~seed ~streams:[ 200; 201 ] ~seconds:1.0 in
      let layers =
        List.filter
          (fun (n, _) -> not (String.starts_with ~prefix:"self." n))
          (serve_layers Load.Rpc ~seed w (Array.to_list sp))
      in
      let bad = mismatches Load.Rpc ~seed w in
      ( layers,
        invariants w @ if bad > 0 then [ Printf.sprintf "%d probe responses mismatched" bad ] else [] ))

let serve kind ~seed ~seconds ~trace =
  let s, setups = repeated_setup (fun k -> serve_setup kind ~seed k) serve_teardown in
  let streams base = List.init conns (fun i -> base + i) in
  let untraced_secs = if trace then 0.4 *. seconds else seconds in
  let w, traced =
    Fun.protect
      ~finally:(fun () -> serve_teardown s)
      (fun () ->
        let w = serve_window s kind ~seed ~streams:(streams 0) ~seconds:untraced_secs in
        if trace then begin
          let sp = Array.init conns (fun _ -> Spans.create ()) in
          let w2 = serve_window ~spans:sp s kind ~seed ~streams:(streams 10) ~seconds:(0.6 *. seconds) in
          (w, Some (w2, sp))
        end
        else (w, None))
  in
  let windows = w :: (match traced with Some (w2, _) -> [ w2 ] | None -> []) in
  let attempted = List.fold_left (fun a w -> a + List.length w.recs) 0 windows in
  let failed = List.fold_left (fun a w -> a + mismatches kind ~seed w) 0 windows in
  let problems = List.concat_map invariants windows in
  let e2e =
    serve_e2e w @ [ (let v, s = summary_value setups in ("setup_s", v, s)) ]
  in
  let layers, spans, probe_fail =
    match traced with
    | None -> ([], [], [])
    | Some (w2, sp) ->
        let sp = Array.to_list sp in
        let rps e = match List.find (fun (n, _, _) -> n = "rps") e with _, v, _ -> v in
        let dense, fails = dense_probe_layers ~seed in
        ( [ ("fail_ratio", float_of_int failed /. float_of_int attempted);
            ("trace.overhead_frac", (rps e2e -. rps (serve_e2e w2)) /. rps e2e);
            ("self.blas", 0.0); ("self.linalg", 0.0) ]
          @ latency_tail (ok_latencies w2)
          @ serve_layers kind ~seed w2 sp
          @ dense,
          sp,
          fails )
  in
  { attempted; failed; problems = problems @ probe_fail; e2e; layers; sched_workers = 1; conns;
    spans }

(* --- workloads ------------------------------------------------------ *)

let dense ~seed ~seconds ~trace =
  let d, setups = repeated_setup (fun k -> dense_setup ~seed k) dense_teardown in
  let sched = d.sched in
  let timed ?spans stream secs =
    let w0 = Sched.stats sched in
    let rounds, seq_ns =
      Dense.window ?spans ~sched ~sched1:d.sched1 ~bufs:d.bufs ~seed ~stream ~seconds:secs ()
    in
    (rounds, seq_ns, sched_delta w0 (Sched.stats sched))
  in
  let untraced_secs = if trace then 0.4 *. seconds else seconds in
  let rounds, _, _ = timed 0 untraced_secs in
  let traced =
    if trace then begin
      let sp = Spans.create () in
      let r2, seq2, rt2 = timed ~spans:sp 1 (0.6 *. seconds) in
      Some (r2, seq2, rt2, sp)
    end
    else None
  in
  let gops_of rs =
    List.map (fun r -> float_of_int Dense.kernel_ops /. Dense.kernels r) rs
  in
  let walls rs = List.map (fun r -> r.Dense.wall /. 1e3) rs in
  let lat = walls rounds in
  let e2e =
    [ (let v, s = summary_value (gops_of rounds) in ("gops", v, s));
      (let v, s = summary_value (List.map (fun w -> 1e6 /. w) lat) in ("rps", v, s));
      ("lat_p50_us", Sample.quantile lat 0.5, Some (Sample.summary lat));
      ("lat_p90_us", Sample.quantile lat 0.9, None);
      (let v, s = summary_value setups in ("setup_s", v, s)) ]
  in
  let all_rounds = rounds @ match traced with Some (r, _, _, _) -> r | None -> [] in
  let failed = List.length (List.filter (fun r -> r.Dense.failures <> []) all_rounds) in
  let attempted = List.length all_rounds in
  let layers, spans =
    match traced with
    | None -> ([], [])
    | Some (r2, seq2, rt2, sp) ->
        let probe = Probe.run ~seed sched in
        let selfs = Spans.self_times [ sp ] in
        let wall = List.fold_left (fun a r -> a +. r.Dense.wall) 0.0 r2 in
        let share names =
          List.fold_left (fun a n -> a +. Spans.total_self_ns selfs n) 0.0 names /. wall
        in
        let blas =
          share [ "blas.gemm_mf2"; "blas.gemm_mf4"; "blas.gemv_mf3"; "blas.dot_mf2"; "blas.axpy_mf4" ]
        in
        let linalg = share [ "linalg.solve" ] in
        let g_untraced = Sample.median (gops_of rounds) and g_traced = Sample.median (gops_of r2) in
        ( with_f64_frac (dense_layers r2 ~seq_ns:seq2 @ probe)
          @ rt2
          @ [ ("fail_ratio", float_of_int failed /. float_of_int attempted);
              ("self.blas", blas); ("self.linalg", linalg);
              ("self.protocol", 0.0); ("self.batcher_eval", 0.0); ("self.client_io", 0.0);
              ("self.unattributed", 1.0 -. blas -. linalg);
              ("trace.overhead_frac", (g_untraced -. g_traced) /. g_untraced) ]
          @ latency_tail (walls r2),
          [ sp ] )
  in
  dense_teardown d;
  let serving, probe_fail = if trace then serve_probe_layers ~seed else ([], []) in
  { attempted; failed; problems = dense_failures all_rounds @ probe_fail; e2e;
    layers = layers @ serving; sched_workers = 2; conns = 0; spans }
