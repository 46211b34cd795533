(* Work-stealing fork/join scheduler over OCaml 5 domains.

   One Chase-Lev deque per worker (slot 0 is the external caller, who
   participates for the duration of [run]; slots 1..w-1 are spawned
   domains).  [fork] pushes a task onto the forking worker's own deque;
   idle workers steal from random victims.  [join] helps: while the
   joined task is unfinished, the joining worker pops its own deque
   (stack order -- usually the task it just forked) or steals,
   executing whatever it finds, so the fork/join tree never blocks a
   domain.

   DETERMINISM.  The scheduler itself decides only WHERE tasks run,
   never what they compute: the task tree (split points, leaf ranges,
   reduction combine order) is fixed by the input sizes and the grain,
   independent of the worker count and of steal timing.  Reductions
   combine child results at their tree node (left then right), so a
   parallel reduction is a fixed expression tree and the result is
   bitwise identical for 1, 2, or any number of workers -- the
   extension of PR 1's scalar-vs-batch bitwise obligation to the
   parallel runtime (asserted by test/test_runtime.ml).

   EXCEPTIONS.  A task body that raises stores the exception in its
   promise; [join] re-raises it.  [both] (the primitive the parallel
   loops are built on) always joins the forked child -- even when the
   inline child raised -- so no task outlives [run], then re-raises
   the leftmost exception.

   TELEMETRY.  Each worker counts executed tasks, steal attempts and
   successes, tasks executed while helping a join, reported flops, and
   busy/idle wall-clock; [stats] snapshots the counters (read them
   between runs for exact values).  Idle time covers only spinning
   while a run was in flight — parked time between runs is not
   telemetry, and excluding it is what makes a [reset_stats] between
   runs exact (no wall-clock segment straddles the reset).  When
   Obs.Trace is enabled, top-level task execution and root runs are
   also recorded as [sched] spans, and [stats_json] renders the
   per-worker rows every JSON surface (BENCH_sched.json, the fig9
   sched block, TRACE summaries) shares. *)

type worker = {
  id : int;
  deque : (unit -> unit) Deque.t;
  victim_rng : Random.State.t;
  mutable depth : int;  (* task nesting, so busy time is not double-counted *)
  mutable tasks : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable join_helps : int;
  mutable flops : int;
  mutable busy_s : float;
  mutable idle_s : float;
}

type t = {
  sid : int;  (* unique scheduler id, keying the per-domain slot registry *)
  workers : worker array;
  mutable domains : unit Domain.t array;
  active : int Atomic.t;  (* external runs in flight (0 or 1) *)
  closed : bool Atomic.t;
  shutting_down : bool Atomic.t;  (* set before drain hooks run; makes shutdown reentrant *)
  lock : Mutex.t;
  wake : Condition.t;  (* workers sleep here between runs *)
  root_lock : Mutex.t;  (* one external run at a time *)
  hooks_lock : Mutex.t;
  mutable hooks : (unit -> unit) list;  (* drain hooks, run LIFO before closing *)
}

type worker_stats = {
  worker_id : int;
  tasks_executed : int;
  steals : int;
  steal_attempts : int;
  join_helps : int;
  tile_flops : int;
  busy_seconds : float;
  idle_seconds : float;
}

let now () = Unix.gettimeofday ()

(* Which slot (if any) the current domain occupies in which scheduler:
   an assoc list keyed by scheduler id, since a caller domain may talk
   to several schedulers over its lifetime. *)
let slot_key : (int * int) list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let next_sid = Atomic.make 0

(* Registry of schedulers that have been created and not yet shut down,
   so a signal handler can drain everything with one call. *)
let live : t list ref = ref []
let live_lock = Mutex.create ()

let slot_of rt = List.assoc_opt rt.sid !(Domain.DLS.get slot_key)

let self rt =
  match slot_of rt with
  | Some s -> rt.workers.(s)
  | None -> invalid_arg "Runtime.Sched: fork/join used outside run"

let mk_worker id =
  {
    id;
    deque = Deque.create ();
    victim_rng = Random.State.make [| 0x5eed; id |];
    depth = 0;
    tasks = 0;
    steals = 0;
    steal_attempts = 0;
    join_helps = 0;
    flops = 0;
    busy_s = 0.0;
    idle_s = 0.0;
  }

(* Tasks never raise: promise bodies catch into the promise state.
   Only depth-0 execution is timed and traced: nested tasks run inline
   inside an already-timed span, and a per-leaf span at fine grain
   would dominate the work it measures. *)
let exec_task w task =
  w.tasks <- w.tasks + 1;
  if w.depth = 0 then begin
    let tr = Obs.Trace.enabled () in
    if tr then Obs.Trace.begin_span Obs.Trace.Sched "sched.task";
    let t0 = now () in
    w.depth <- 1;
    task ();
    w.depth <- 0;
    w.busy_s <- w.busy_s +. (now () -. t0);
    if tr then Obs.Trace.end_span ()
  end
  else task ()

let try_steal rt (w : worker) =
  let n = Array.length rt.workers in
  if n = 1 then None
  else begin
    w.steal_attempts <- w.steal_attempts + 1;
    let start = Random.State.int w.victim_rng n in
    let rec go i =
      if i = n then None
      else
        let v = rt.workers.((start + i) mod n) in
        if v.id = w.id then go (i + 1)
        else
          match Deque.steal v.deque with
          | Some _ as r ->
              w.steals <- w.steals + 1;
              r
          | None -> go (i + 1)
    in
    go 0
  end

(* One scheduling step for [w]: run one available task, or return false. *)
let step rt w =
  match Deque.pop w.deque with
  | Some task ->
      exec_task w task;
      true
  | None -> (
      match try_steal rt w with
      | Some task ->
          exec_task w task;
          true
      | None -> false)

let worker_loop rt slot =
  let reg = Domain.DLS.get slot_key in
  reg := (rt.sid, slot) :: !reg;
  let w = rt.workers.(slot) in
  let misses = ref 0 in
  while not (Atomic.get rt.closed) do
    if step rt w then misses := 0
    else if Atomic.get rt.active > 0 then begin
      (* A run is in flight but nothing is stealable yet: spin
         briefly, then yield the core (essential when domains
         oversubscribe the machine -- a spinning thief would steal
         cycles from the worker actually holding the work).  Only
         this in-run spinning counts as idle time: parked time
         between runs is not telemetry, and timing it would leak a
         wall-clock segment across a [reset_stats] issued while the
         scheduler is quiescent. *)
      let t0 = now () in
      incr misses;
      if !misses < 100 then Domain.cpu_relax () else Unix.sleepf 0.0002;
      w.idle_s <- w.idle_s +. (now () -. t0)
    end
    else begin
      Mutex.lock rt.lock;
      while Atomic.get rt.active = 0 && not (Atomic.get rt.closed) do
        Condition.wait rt.wake rt.lock
      done;
      Mutex.unlock rt.lock;
      misses := 0
    end
  done

let create ?workers () =
  let n =
    match workers with
    | Some w -> max 1 w
    | None -> Domain.recommended_domain_count ()
  in
  let rt =
    {
      sid = Atomic.fetch_and_add next_sid 1;
      workers = Array.init n mk_worker;
      domains = [||];
      active = Atomic.make 0;
      closed = Atomic.make false;
      shutting_down = Atomic.make false;
      lock = Mutex.create ();
      wake = Condition.create ();
      root_lock = Mutex.create ();
      hooks_lock = Mutex.create ();
      hooks = [];
    }
  in
  rt.domains <- Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker_loop rt (i + 1)));
  Mutex.lock live_lock;
  live := rt :: !live;
  Mutex.unlock live_lock;
  rt

let size rt = Array.length rt.workers

(* ------------------------------------------------------------------ *)
(* Fork/join                                                           *)

type 'a state =
  | Todo of (unit -> 'a)
  | Done of 'a
  | Raised of exn

type 'a promise = 'a state Atomic.t

let exec_promise p () =
  match Atomic.get p with
  | Todo f ->
      let r = try Done (f ()) with e -> Raised e in
      Atomic.set p r
  | Done _ | Raised _ -> ()

let fork rt f =
  let w = self rt in
  let p = Atomic.make (Todo f) in
  if Deque.push w.deque (exec_promise p) then p
  else begin
    (* deque full: degrade to an inline call (same task tree, same
       result; only the potential parallelism is lost) *)
    exec_promise p ();
    p
  end

let join rt p =
  match Atomic.get p with
  | Done v -> v
  | Raised e -> raise e
  | Todo _ ->
      let w = self rt in
      let misses = ref 0 in
      let rec wait () =
        match Atomic.get p with
        | Done v -> v
        | Raised e -> raise e
        | Todo _ ->
            (* help: run other tasks while the stolen child finishes *)
            if step rt w then begin
              w.join_helps <- w.join_helps + 1;
              misses := 0
            end
            else begin
              incr misses;
              if !misses < 100 then Domain.cpu_relax () else Unix.sleepf 0.0002
            end;
            wait ()
      in
      wait ()

let run rt f =
  if Atomic.get rt.closed then invalid_arg "Runtime.Sched.run: scheduler is shut down";
  match slot_of rt with
  | Some _ -> f () (* nested: already executing inside this scheduler *)
  | None ->
      Mutex.lock rt.root_lock;
      let reg = Domain.DLS.get slot_key in
      reg := (rt.sid, 0) :: !reg;
      Atomic.incr rt.active;
      Mutex.lock rt.lock;
      Condition.broadcast rt.wake;
      Mutex.unlock rt.lock;
      let w = rt.workers.(0) in
      let finish result =
        (* nothing of this run may outlive it: [both] joins every fork,
           so at this point the deques are quiescent *)
        Atomic.decr rt.active;
        reg := List.filter (fun (s, _) -> s <> rt.sid) !reg;
        Mutex.unlock rt.root_lock;
        match result with Ok v -> v | Error e -> raise e
      in
      let tr = Obs.Trace.enabled () in
      if tr then Obs.Trace.begin_span Obs.Trace.Sched "sched.run";
      let t0 = now () in
      (* the root counts as a top-level task: tasks its joins help
         through run inside this timed span, not in spans of their own *)
      w.depth <- 1;
      let result = try Ok (f ()) with e -> Error e in
      w.depth <- 0;
      w.tasks <- w.tasks + 1;
      w.busy_s <- w.busy_s +. (now () -. t0);
      if tr then Obs.Trace.end_span ();
      finish result

let both rt f g =
  let pg = fork rt g in
  let rf = try Ok (f ()) with e -> Error e in
  (* always join -- even under an exception -- so no forked task can
     outlive the enclosing run *)
  let rg = try Ok (join rt pg) with e -> Error e in
  match (rf, rg) with
  | Ok a, Ok b -> (a, b)
  | Error e, _ -> raise e
  | Ok _, Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Deterministic parallel loops                                        *)

let parallel_for rt ?(grain = 1) ~lo ~hi body =
  let grain = max 1 grain in
  let rec go lo hi =
    if hi - lo <= grain then (if hi > lo then body lo hi)
    else begin
      let mid = lo + ((hi - lo) / 2) in
      ignore (both rt (fun () -> go lo mid) (fun () -> go mid hi))
    end
  in
  run rt (fun () -> go lo hi)

let parallel_reduce rt ?(grain = 1) ~lo ~hi ~leaf combine =
  let grain = max 1 grain in
  let rec go lo hi =
    if hi - lo <= grain then leaf lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let a, b = both rt (fun () -> go lo mid) (fun () -> go mid hi) in
      combine a b
    end
  in
  run rt (fun () -> go lo hi)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let add_flops rt n =
  let w = self rt in
  w.flops <- w.flops + n

let stats rt =
  Array.map
    (fun w ->
      {
        worker_id = w.id;
        tasks_executed = w.tasks;
        steals = w.steals;
        steal_attempts = w.steal_attempts;
        join_helps = w.join_helps;
        tile_flops = w.flops;
        busy_seconds = w.busy_s;
        idle_seconds = w.idle_s;
      })
    rt.workers

let reset_stats rt =
  Array.iter
    (fun w ->
      w.tasks <- 0;
      w.steals <- 0;
      w.steal_attempts <- 0;
      w.join_helps <- 0;
      w.flops <- 0;
      w.busy_s <- 0.0;
      w.idle_s <- 0.0)
    rt.workers

let busy_fraction (s : worker_stats) =
  let total = s.busy_seconds +. s.idle_seconds in
  if total <= 0.0 then 0.0 else s.busy_seconds /. total

(* The one JSON rendering of per-worker telemetry.  BENCH_sched.json,
   the fig9 sched block, and the trace summary all call this, so their
   rows are bitwise-identical by construction. *)
let stats_json (ws : worker_stats array) =
  let open Obs.Json_out in
  List
    (Array.to_list ws
    |> List.map (fun s ->
           Obj
             [
               ("worker", Num (float_of_int s.worker_id));
               ("tasks", Num (float_of_int s.tasks_executed));
               ("steals", Num (float_of_int s.steals));
               ("steal_attempts", Num (float_of_int s.steal_attempts));
               ("join_helps", Num (float_of_int s.join_helps));
               ("tile_flops", Num (float_of_int s.tile_flops));
               ("busy_seconds", Num s.busy_seconds);
               ("idle_seconds", Num s.idle_seconds);
               ("busy_fraction", Num (busy_fraction s));
             ]))

(* ------------------------------------------------------------------ *)

let on_shutdown rt f =
  Mutex.lock rt.hooks_lock;
  rt.hooks <- f :: rt.hooks;
  Mutex.unlock rt.hooks_lock

let shutdown rt =
  if not (Atomic.exchange rt.shutting_down true) then begin
    (* Drain hooks run first, while the scheduler still accepts runs, so
       a subsystem built on this scheduler (e.g. Serve.Server) can flush
       its in-flight work through it before the workers go away. *)
    Mutex.lock rt.hooks_lock;
    let hooks = rt.hooks in
    rt.hooks <- [];
    Mutex.unlock rt.hooks_lock;
    List.iter (fun h -> try h () with _ -> ()) hooks;
    Atomic.set rt.closed true;
    Mutex.lock rt.lock;
    Condition.broadcast rt.wake;
    Mutex.unlock rt.lock;
    Array.iter Domain.join rt.domains;
    rt.domains <- [||];
    Mutex.lock live_lock;
    live := List.filter (fun r -> r.sid <> rt.sid) !live;
    Mutex.unlock live_lock
  end

let drain_all () =
  let snapshot =
    Mutex.lock live_lock;
    let l = !live in
    Mutex.unlock live_lock;
    l
  in
  List.iter shutdown snapshot

let with_sched ?workers f =
  let rt = create ?workers () in
  Fun.protect ~finally:(fun () -> shutdown rt) (fun () -> f rt)
