(* Micro-batcher domain: pop — shed expired — group by (op, tier,
   sla?) — execute each group as one batched kernel call — scatter
   replies.

   Bitwise discipline: every op either runs through the planar Batch
   kernels (whose results are bitwise the scalar loop — the PR-1
   obligation) or runs the same accumulation order as eval_one, so a
   served response never differs from the scalar path by a single
   bit, batched or not.

   SLA cohorts: requests carrying an accuracy SLA group by (op,
   starting tier) and climb the escalation ladder together — the whole
   pending subset is evaluated per tier through the same batched
   kernels, each element is certified individually, and only the
   failing subset (a per-element escalation mask, kept as an index
   list) moves to the next tier.  Results at an element's finally-
   chosen tier are therefore bitwise what a fixed-tier request with
   the zero-padded operands would have returned. *)

module P = Protocol
module A = Adaptive

type entry = {
  req : P.request;
  arrival_ns : float;
  reply : P.response -> unit;
}

type stats = {
  batches : int;
  completed : int;
  shed_deadline : int;
  errors : int;
  histogram : (int * int) list;
  sla_requests : int;
  sla_escalations : int;  (* total rungs climbed past starting tiers *)
  sla_chosen : (string * int) list;  (* escalation histogram: tier -> count *)
}

(* --- per-tier execution --------------------------------------------- *)

module Exec (M : Multifloat.Ops.S) (V : Multifloat.Batch.V with type elt = M.t) =
struct
  module E = Multifloat.Elementary.Make (M)
  module Poly = Multifloat.Poly.Make (M)

  let elt c = M.of_components c
  let comps e = M.components e

  (* Scalar reference path: plain scalar kernels, index order. *)
  let eval_one (r : P.request) : float array array =
    let x i = elt r.x.(i) in
    let y i = elt r.y.(i) in
    let one v = [| comps v |] in
    match r.op with
    | P.Add -> one (M.add (x 0) (y 0))
    | P.Mul -> one (M.mul (x 0) (y 0))
    | P.Div -> one (M.div (x 0) (y 0))
    | P.Sqrt -> one (M.sqrt (x 0))
    | P.Exp -> one (E.exp (x 0))
    | P.Log -> one (E.log (x 0))
    | P.Sin -> one (E.sin (x 0))
    | P.Dot ->
        let acc = ref M.zero in
        for i = 0 to Array.length r.x - 1 do
          acc := M.add !acc (M.mul (x i) (y i))
        done;
        one !acc
    | P.Axpy ->
        let alpha = y 0 in
        Array.init (Array.length r.x) (fun i ->
            comps (M.add (M.mul alpha (x i)) (y (i + 1))))
    | P.Sum ->
        let acc = ref M.zero in
        for i = 0 to Array.length r.x - 1 do
          acc := M.add !acc (x i)
        done;
        one !acc
    | P.Poly_eval -> one (Poly.eval (Array.map elt r.x) (y 0))
    | P.Program -> (
        (* op-by-op scalar composition: the unfused reference the fused
           planar chains below are pinned against *)
        match r.prog with
        | [ "sum" ] ->
            let acc = ref M.zero in
            for i = 0 to Array.length r.x - 1 do
              acc := M.add !acc (x i)
            done;
            one !acc
        | [ "mul"; "sum" ] ->
            let n = Array.length r.x in
            let t = Array.init n (fun i -> M.mul (x i) (y i)) in
            let acc = ref M.zero in
            for i = 0 to n - 1 do
              acc := M.add !acc t.(i)
            done;
            one !acc
        | [ "axpy"; "dot" ] ->
            let n = Array.length r.x in
            let alpha = y 0 in
            let z i = elt r.z.(i) in
            let ynew = Array.init n (fun i -> M.add (M.mul alpha (x i)) (y (i + 1))) in
            let acc = ref M.zero in
            for i = 0 to n - 1 do
              acc := M.add !acc (M.mul ynew.(i) (z i))
            done;
            Array.append [| comps !acc |] (Array.map comps ynew)
        | chain ->
            invalid_arg
              (Printf.sprintf "Serve.Batcher: unsupported program %S" (P.program_name chain)))
    | P.Stats -> invalid_arg "Serve.Batcher: stats is not a compute op"

    (* Per-request evaluation on the batched path.  Vector ops go
       through the planar kernels; their accumulation orders match the
       scalar folds above by the Batch contract. *)
  let eval_vec (r : P.request) : float array array =
    match r.op with
    | P.Dot ->
        let n = Array.length r.x in
        let vx = V.create n and vy = V.create n in
        for i = 0 to n - 1 do
          V.set vx i (elt r.x.(i));
          V.set vy i (elt r.y.(i))
        done;
        [| comps (V.dot ~init:M.zero ~x:vx ~xoff:0 ~y:vy ~yoff:0 ~len:n) |]
    | P.Axpy ->
        let n = Array.length r.x in
        let vx = V.create n and vy = V.create n in
        for i = 0 to n - 1 do
          V.set vx i (elt r.x.(i));
          V.set vy i (elt r.y.(i + 1))
        done;
        V.axpy ~lo:0 ~hi:n ~alpha:(elt r.y.(0)) ~x:vx ~y:vy;
        Array.init n (fun i -> comps (V.get vy i))
    | P.Program -> (
        (* each chain runs as planar kernels whose gate sequence is the
           op-by-op composition's ([axpy;dot] as [axpy], then [dot] over
           the updated [y]), so results match eval_one bitwise *)
        match r.prog with
        | [ "sum" ] ->
            let n = Array.length r.x in
            let vx = V.create n in
            for i = 0 to n - 1 do
              V.set vx i (elt r.x.(i))
            done;
            [| comps (V.sum ~init:M.zero ~x:vx ~xoff:0 ~len:n) |]
        | [ "mul"; "sum" ] ->
            let n = Array.length r.x in
            let vx = V.create n and vy = V.create n in
            for i = 0 to n - 1 do
              V.set vx i (elt r.x.(i));
              V.set vy i (elt r.y.(i))
            done;
            [| comps (V.dot ~init:M.zero ~x:vx ~xoff:0 ~y:vy ~yoff:0 ~len:n) |]
        | [ "axpy"; "dot" ] ->
            let n = Array.length r.x in
            let vx = V.create n and vy = V.create n and vz = V.create n in
            for i = 0 to n - 1 do
              V.set vx i (elt r.x.(i));
              V.set vy i (elt r.y.(i + 1));
              V.set vz i (elt r.z.(i))
            done;
            V.axpy ~lo:0 ~hi:n ~alpha:(elt r.y.(0)) ~x:vx ~y:vy;
            let acc = V.dot ~init:M.zero ~x:vy ~xoff:0 ~y:vz ~yoff:0 ~len:n in
            Array.append [| comps acc |] (Array.init n (fun i -> comps (V.get vy i)))
        | _ -> eval_one r)
    | _ -> eval_one r

  (* One micro-batch of same-op same-tier requests -> one result per
     request.  Elementwise ops make a single batched kernel call over
     packed planes; the rest fan out per request. *)
  let eval_batch sched (reqs : P.request array) : float array array array =
    let n = Array.length reqs in
    let pack proj =
      let v = V.create n in
      for i = 0 to n - 1 do
        V.set v i (elt (proj reqs.(i)))
      done;
      v
    in
    let scatter dst = Array.init n (fun i -> [| comps (V.get dst i) |]) in
    match reqs.(0).P.op with
    | P.Add | P.Mul | P.Div ->
        let vx = pack (fun r -> r.P.x.(0)) in
        let vy = pack (fun r -> r.P.y.(0)) in
        let dst = V.create n in
        (match reqs.(0).P.op with
        | P.Add -> V.add ~dst vx vy
        | P.Mul -> V.mul ~dst vx vy
        | _ -> V.map2 ~dst M.div vx vy);
        scatter dst
    | P.Sqrt | P.Exp | P.Log | P.Sin ->
        let vx = pack (fun r -> r.P.x.(0)) in
        let dst = V.create n in
        let f =
          match reqs.(0).P.op with
          | P.Sqrt -> M.sqrt
          | P.Exp -> E.exp
          | P.Log -> E.log
          | _ -> E.sin
        in
        V.map ~dst f vx;
        scatter dst
    | _ ->
        let out = Array.make n [||] in
        Runtime.Sched.parallel_for sched ~lo:0 ~hi:n (fun lo hi ->
            for i = lo to hi - 1 do
              out.(i) <- eval_vec reqs.(i)
            done);
        out
end

module X2 = Exec (Multifloat.Mf2) (Multifloat.Batch.Mf2v)
module X3 = Exec (Multifloat.Mf3) (Multifloat.Batch.Mf3v)
module X4 = Exec (Multifloat.Mf4) (Multifloat.Batch.Mf4v)

let tier_of_terms = function
  | 2 -> P.Mf2
  | 3 -> P.Mf3
  | 4 -> P.Mf4
  | n -> invalid_arg (Printf.sprintf "Serve.Batcher.tier_of_terms: %d" n)

(* The fixed-tier twin of an SLA request at one ladder rung: operands
   zero-padded (exact) to the rung's width, the sla dropped.  This is
   the request whose direct evaluation the SLA path must match
   bitwise. *)
let pad_request ~terms (r : P.request) =
  let pad rows = Array.map (A.Sla.pad_element ~terms) rows in
  {
    r with
    P.tier = tier_of_terms terms;
    sla = None;
    x = pad r.P.x;
    y = pad r.P.y;
    z = pad r.P.z;
  }

let eval_fixed (r : P.request) =
  match r.P.tier with
  | P.Mf2 -> X2.eval_one r
  | P.Mf3 -> X3.eval_one r
  | P.Mf4 -> X4.eval_one r

let sla_inputs (r : P.request) = { A.Sla.x = r.P.x; y = r.P.y; z = r.P.z }

(* Scalar reference path for SLA requests: the full escalation ladder,
   each rung evaluated by this tier's own scalar kernels. *)
let eval_adaptive (r : P.request) : (A.Escalate.outcome, string) result =
  match r.P.sla with
  | None -> Error "request carries no sla"
  | Some q -> (
      match A.Sla.of_wire ~op:(P.op_name r.P.op) ~prog:r.P.prog with
      | None -> Error (Printf.sprintf "op %s cannot carry an sla" (P.op_name r.P.op))
      | Some op ->
          let eval ~terms (inp : A.Sla.inputs) =
            eval_fixed
              { r with P.tier = tier_of_terms terms; sla = None;
                x = inp.A.Sla.x; y = inp.A.Sla.y; z = inp.A.Sla.z }
          in
          try A.Escalate.run ~eval ~q ~op (sla_inputs r)
          with e -> Error (Printexc.to_string e))

let eval_one (r : P.request) =
  match (r.P.op, r.P.sla) with
  | P.Stats, _ -> Error "stats is not a compute op"
  | _, Some _ -> Result.map (fun (o : A.Escalate.outcome) -> o.result) (eval_adaptive r)
  | _, None -> (
      try Ok (eval_fixed r) with e -> Error (Printexc.to_string e))

let eval_batch sched tier (reqs : P.request array) =
  match tier with
  | P.Mf2 -> X2.eval_batch sched reqs
  | P.Mf3 -> X3.eval_batch sched reqs
  | P.Mf4 -> X4.eval_batch sched reqs

(* --- the batcher domain --------------------------------------------- *)

type t = {
  sched : Runtime.Sched.t;
  queue : entry Admission.t;
  max_batch : int;
  window_ns : int64;
  flush : unit -> unit;
  lock : Mutex.t;
  mutable batches : int;
  mutable completed : int;
  mutable shed_deadline : int;
  mutable errors : int;
  hist : (int, int ref) Hashtbl.t;
  mutable sla_requests : int;
  mutable sla_escalations : int;
  sla_chosen : (string, int ref) Hashtbl.t;
  mutable domain : unit Domain.t option;
}

let batch_hist = Obs.Metrics.hist ~lo_exp:0 ~hi_exp:12 "serve.batch_size"
let latency_hist = Obs.Metrics.hist "serve.latency_ns"
let completed_ctr = Obs.Metrics.counter "serve.completed"
let shed_deadline_ctr = Obs.Metrics.counter "serve.shed_deadline"
let sla_requests_ctr = Obs.Metrics.counter "serve.sla_requests"
let sla_escalations_ctr = Obs.Metrics.counter "serve.sla_escalations"

(* Per-rung serving latency: how much an SLA request pays for ending up
   at each tier (escalated elements accumulate every rung they visited). *)
let sla_latency_hists =
  List.map
    (fun name -> (name, Obs.Metrics.hist ("serve.sla.latency_ns." ^ name)))
    [ "mf2"; "mf3"; "mf4"; "bigfloat" ]

let expired now (e : entry) =
  match e.req.P.deadline_ms with
  | None -> false
  | Some d -> (now -. e.arrival_ns) *. 1e-6 > d

(* Group by (op, tier, sla?), preserving arrival order inside each
   group and first-appearance order across groups.  SLA requests form
   their own escalation cohorts per (op, starting tier); the concrete
   q may differ inside a cohort — certification is per element. *)
let group_entries entries =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun e ->
      let key = (e.req.P.op, e.req.P.tier, e.req.P.sla <> None) in
      match Hashtbl.find_opt tbl key with
      | Some acc -> acc := e :: !acc
      | None ->
          Hashtbl.add tbl key (ref [ e ]);
          order := key :: !order)
    entries;
  List.rev_map (fun key -> List.rev !(Hashtbl.find tbl key)) !order
  |> List.rev

let bump_batch t n =
  Mutex.lock t.lock;
  t.batches <- t.batches + 1;
  (match Hashtbl.find_opt t.hist n with
  | Some r -> incr r
  | None -> Hashtbl.add t.hist n (ref 1));
  Mutex.unlock t.lock;
  Obs.Metrics.observe batch_hist (float_of_int n)

(* counters move before the replies go out, so a client that reacts
   to its response instantly still sees itself in the stats *)
let run_fixed_group t (arr : entry array) =
  let n = Array.length arr in
  let tier = arr.(0).req.P.tier in
  match
    Runtime.Sched.run t.sched (fun () ->
        eval_batch t.sched tier (Array.map (fun e -> e.req) arr))
  with
  | results ->
      Mutex.lock t.lock;
      t.completed <- t.completed + n;
      Mutex.unlock t.lock;
      Obs.Metrics.add completed_ctr n;
      bump_batch t n;
      let now = Obs.Clock.now_ns () in
      Array.iteri
        (fun i e ->
          Obs.Metrics.observe latency_hist (now -. e.arrival_ns);
          e.reply
            (P.Result
               { id = e.req.P.id; result = results.(i); batch = n;
                 chosen = None; bound = None }))
        arr
  | exception e ->
      let msg = Printexc.to_string e in
      Mutex.lock t.lock;
      t.errors <- t.errors + n;
      Mutex.unlock t.lock;
      bump_batch t n;
      Array.iter (fun en -> en.reply (P.Failed { id = en.req.P.id; error = msg })) arr

(* One escalation cohort: evaluate the whole pending subset per tier
   through the same batched kernels a fixed-tier group uses, certify
   each element against its own q, carry only the failing indices to
   the next rung, finish stragglers in the bigfloat fallback. *)
let run_sla_group t (arr : entry array) =
  let n = Array.length arr in
  let start_terms = P.tier_terms arr.(0).req.P.tier in
  let results = Array.make n [||] in
  let bounds = Array.make n Float.infinity in
  let chosen = Array.make n "" in
  let failed = Array.make n None in
  let hops = Array.make n 0 in
  let meta =
    Array.map
      (fun e ->
        match (A.Sla.of_wire ~op:(P.op_name e.req.P.op) ~prog:e.req.P.prog, e.req.P.sla) with
        | Some op, Some q -> Some (op, q)
        | _ -> None)
      arr
  in
  let pending = ref [] in
  for i = n - 1 downto 0 do
    match meta.(i) with
    | Some _ -> pending := i :: !pending
    | None -> failed.(i) <- Some "not an sla-certifiable request"
  done;
  (try
     let terms = ref start_terms in
     while !pending <> [] && !terms <= A.Sla.max_terms do
       let last = !terms = A.Sla.max_terms in
       (* a rung only evaluates the requests it will certify: the
          static certificate needs no result, so a request whose
          static bound misses here hops to the next rung un-evaluated.
          The last rung evaluates everyone left — its ball certificate
          does need the result. *)
       let evals, skips =
         List.partition
           (fun i ->
             last
             ||
             let op, q = Option.get meta.(i) in
             let inp = sla_inputs arr.(i).req in
             A.Certify.static_bound op ~terms:!terms inp
             <= A.Certify.threshold ~q ~scale:(A.Certify.scale op inp))
           !pending
       in
       let idxs = Array.of_list evals in
       let still = ref [] in
       if Array.length idxs > 0 then begin
         let padded = Array.map (fun i -> pad_request ~terms:!terms arr.(i).req) idxs in
         let res =
           Runtime.Sched.run t.sched (fun () ->
               eval_batch t.sched (tier_of_terms !terms) padded)
         in
         Array.iteri
           (fun k i ->
             let op, q = Option.get meta.(i) in
             let bound, met =
               A.Certify.certify op ~terms:!terms ~q (sla_inputs arr.(i).req) res.(k)
             in
             if met then begin
               results.(i) <- res.(k);
               bounds.(i) <- bound;
               chosen.(i) <- A.Sla.tier_name_of_terms !terms
             end
             else begin
               hops.(i) <- hops.(i) + 1;
               still := i :: !still
             end)
           idxs
       end;
       List.iter (fun i -> hops.(i) <- hops.(i) + 1) skips;
       pending := List.merge compare (List.rev !still) skips;
       incr terms
     done;
     List.iter
       (fun i ->
         let op, _ = Option.get meta.(i) in
         let o =
           A.Escalate.bigfloat_outcome op (sla_inputs arr.(i).req)
             ~escalations:hops.(i)
         in
         results.(i) <- o.A.Escalate.result;
         bounds.(i) <- o.A.Escalate.bound;
         chosen.(i) <- o.A.Escalate.chosen)
       !pending;
     pending := []
   with e ->
     let msg = Printexc.to_string e in
     List.iter (fun i -> failed.(i) <- Some msg) !pending;
     pending := []);
  let n_fail = Array.fold_left (fun a f -> if f = None then a else a + 1) 0 failed in
  let n_ok = n - n_fail in
  let total_escal = Array.fold_left ( + ) 0 hops in
  Mutex.lock t.lock;
  t.completed <- t.completed + n_ok;
  t.errors <- t.errors + n_fail;
  t.sla_requests <- t.sla_requests + n;
  t.sla_escalations <- t.sla_escalations + total_escal;
  Array.iteri
    (fun i f ->
      if f = None then
        match Hashtbl.find_opt t.sla_chosen chosen.(i) with
        | Some r -> incr r
        | None -> Hashtbl.add t.sla_chosen chosen.(i) (ref 1))
    failed;
  Mutex.unlock t.lock;
  Obs.Metrics.add completed_ctr n_ok;
  Obs.Metrics.add sla_requests_ctr n;
  Obs.Metrics.add sla_escalations_ctr total_escal;
  bump_batch t n;
  let now = Obs.Clock.now_ns () in
  Array.iteri
    (fun i e ->
      match failed.(i) with
      | Some error -> e.reply (P.Failed { id = e.req.P.id; error })
      | None ->
          Obs.Metrics.observe latency_hist (now -. e.arrival_ns);
          (match List.assoc_opt chosen.(i) sla_latency_hists with
          | Some h -> Obs.Metrics.observe h (now -. e.arrival_ns)
          | None -> ());
          e.reply
            (P.Result
               { id = e.req.P.id; result = results.(i); batch = n;
                 chosen = Some chosen.(i); bound = Some bounds.(i) }))
    arr

let run_group t (group : entry list) =
  let arr = Array.of_list group in
  let tr = Obs.Trace.enabled () in
  if tr then Obs.Trace.begin_span Obs.Trace.Io "serve.batch";
  if arr.(0).req.P.sla <> None then run_sla_group t arr else run_fixed_group t arr;
  if tr then
    Obs.Trace.end_span_f ~arg_name:"batch" ~arg:(float_of_int (Array.length arr))

let cycle t entries =
  let now = Obs.Clock.now_ns () in
  let live, late = List.partition (fun e -> not (expired now e)) entries in
  List.iter
    (fun e ->
      e.reply (P.Shed { id = e.req.P.id; reason = "deadline" });
      Obs.Metrics.incr shed_deadline_ctr)
    late;
  let n_late = List.length late in
  if n_late > 0 then begin
    Mutex.lock t.lock;
    t.shed_deadline <- t.shed_deadline + n_late;
    Mutex.unlock t.lock
  end;
  List.iter (run_group t) (group_entries live);
  (* one flush per cycle: replies buffered per connection by the
     server go out in a single write each *)
  t.flush ()

let rec loop t =
  match Admission.pop_batch t.queue ~max:t.max_batch ~window_ns:t.window_ns with
  | [] -> ()
  | entries ->
      cycle t entries;
      loop t

let create ~sched ~queue ~max_batch ~window_ns ?(flush = fun () -> ()) () =
  if max_batch < 1 then invalid_arg "Serve.Batcher.create: max_batch < 1";
  let t =
    {
      sched;
      queue;
      max_batch;
      window_ns;
      flush;
      lock = Mutex.create ();
      batches = 0;
      completed = 0;
      shed_deadline = 0;
      errors = 0;
      hist = Hashtbl.create 16;
      sla_requests = 0;
      sla_escalations = 0;
      sla_chosen = Hashtbl.create 4;
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> loop t));
  t

let join t =
  match t.domain with
  | None -> ()
  | Some d ->
      Domain.join d;
      t.domain <- None

(* The escalation ladder's display order; unknown labels (never
   produced today) would sort last. *)
let tier_order = [ "mf2"; "mf3"; "mf4"; "bigfloat" ]

let tier_rank name =
  let rec go i = function
    | [] -> List.length tier_order
    | t :: rest -> if t = name then i else go (i + 1) rest
  in
  go 0 tier_order

let stats t =
  Mutex.lock t.lock;
  let histogram =
    Hashtbl.fold (fun size r acc -> (size, !r) :: acc) t.hist []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let sla_chosen =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.sla_chosen []
    |> List.sort (fun (a, _) (b, _) -> compare (tier_rank a, a) (tier_rank b, b))
  in
  let s =
    {
      batches = t.batches;
      completed = t.completed;
      shed_deadline = t.shed_deadline;
      errors = t.errors;
      histogram;
      sla_requests = t.sla_requests;
      sla_escalations = t.sla_escalations;
      sla_chosen;
    }
  in
  Mutex.unlock t.lock;
  s
