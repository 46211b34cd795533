(* In-memory span recorder for the traced run.  Spans are taken by the
   benchmark around its own calls into each layer; a span names its
   parent (or -1 for a root) and the request it belongs to.  One
   recorder per driver thread, so recording takes no lock. *)

type t = {
  mutable name : string array;
  mutable req : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable n : int;
}

let create () =
  let c = 1024 in
  { name = Array.make c ""; req = Array.make c 0; parent = Array.make c (-1);
    t0 = Array.make c 0.0; t1 = Array.make c 0.0; n = 0 }

let grow t =
  let c = 2 * Array.length t.name in
  let ext a d = Array.init c (fun i -> if i < t.n then a.(i) else d) in
  t.name <- ext t.name "";
  t.req <- ext t.req 0;
  t.parent <- ext t.parent (-1);
  t.t0 <- ext t.t0 0.0;
  t.t1 <- ext t.t1 0.0

(* Record a finished span; returns its index for use as a parent. *)
let add t ?(parent = -1) ?(req = -1) name t0 t1 =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.req.(i) <- req;
  t.parent.(i) <- parent;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.n <- i + 1;
  i

(* Open a span whose end is filled in later by [close]. *)
let openl t ?parent ?req name t0 = add t ?parent ?req name t0 t0
let close t i t1 = t.t1.(i) <- t1

(* Per span name: (total self time ns, span count).  Self time is the
   span's duration minus the time its direct children cover. *)
let self_times recorders =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let child = Array.make t.n 0.0 in
      for i = 0 to t.n - 1 do
        let p = t.parent.(i) in
        if p >= 0 then child.(p) <- child.(p) +. (t.t1.(i) -. t.t0.(i))
      done;
      for i = 0 to t.n - 1 do
        let self = t.t1.(i) -. t.t0.(i) -. child.(i) in
        let s, c = Option.value (Hashtbl.find_opt tbl t.name.(i)) ~default:(0.0, 0) in
        Hashtbl.replace tbl t.name.(i) (s +. self, c + 1)
      done)
    recorders;
  tbl

(* Mean self time of one span name in microseconds (0 if absent). *)
let mean_self_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (s, c) when c > 0 -> s /. float_of_int c /. 1e3
  | _ -> 0.0

let total_self_ns tbl name =
  match Hashtbl.find_opt tbl name with Some (s, _) -> s | None -> 0.0

(* Chrome trace-event rendering (load in Perfetto), for [--spans]. *)
let to_chrome recorders =
  let module J = Obs.Json_out in
  J.Obj
    [ ( "traceEvents",
        J.List
          (List.concat
             (List.mapi
                (fun tid t ->
                  List.init t.n (fun i ->
                      J.Obj
                        [ ("name", J.Str t.name.(i)); ("ph", J.Str "X");
                          ("ts", J.Num (t.t0.(i) /. 1e3));
                          ("dur", J.Num ((t.t1.(i) -. t.t0.(i)) /. 1e3));
                          ("pid", J.Num 1.0); ("tid", J.Num (float_of_int tid));
                          ("args", J.Obj [ ("req", J.Num (float_of_int t.req.(i))) ]) ]))
                recorders)) ) ]
