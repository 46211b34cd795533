(* Closed-loop load against an in-process server, over unix-domain
   connections, with every request generated fresh from the seed and
   encoded on the spot. *)

module P = Serve.Protocol
module J = Obs.Json_out

type kind = Rpc | Batch

let tiers = [| P.Mf2; P.Mf3; P.Mf4 |]
let slas = [| 90; 140; 190 |]
let rpc_ops = [| P.Add; P.Mul; P.Div; P.Sqrt; P.Dot; P.Axpy; P.Sum |]

(* Request [seq] of generator stream [stream].  Rpc: scalar add, mul,
   div, sqrt and dot/axpy/sum over length 8, tiers round-robin.  Batch:
   dot, axpy and the fused program chains over length 256, tiers
   round-robin, every fourth request carrying an SLA (2-term operands,
   so its ladder starts at mf2). *)
let request kind ~seed ~stream seq =
  let st = Gen.state ~seed ~stream seq in
  let op, prog, sla, tier, len =
    match kind with
    | Rpc -> (rpc_ops.(seq mod 7), [], None, tiers.(seq / 7 mod 3), 8)
    | Batch ->
        let sla = if seq mod 4 = 3 then Some slas.(seq / 4 mod 3) else None in
        let op, prog =
          match seq mod 5 with
          | 0 -> (P.Dot, [])
          | 1 -> (P.Axpy, [])
          | k -> (P.Program, List.nth P.programs (k - 2))
        in
        (op, prog, sla, (if sla = None then tiers.(seq / 5 mod 3) else P.Mf2), 256)
  in
  let terms = P.tier_terms tier in
  let el () = Gen.expansion st terms in
  let vec m = Array.init m (fun _ -> el ()) in
  let x, y, z =
    match (op, prog) with
    | (P.Add | P.Mul | P.Div), _ -> ([| el () |], [| el () |], [||])
    | P.Sqrt, _ -> ([| Gen.expansion ~positive:true st terms |], [||], [||])
    | P.Dot, _ | P.Program, [ "mul"; "sum" ] -> (vec len, vec len, [||])
    | P.Axpy, _ -> (vec len, vec (len + 1), [||])
    | P.Sum, _ | P.Program, [ "sum" ] -> (vec len, [||], [||])
    | P.Program, _ -> (vec len, vec (len + 1), vec len)
    | _ -> invalid_arg "Load.request"
  in
  { P.id = seq + 1; op; tier; sla; deadline_ms = None; prog; x; y; z }

(* Extended-precision operations a request performs (one op = one
   multiply plus one add; a scalar op counts one). *)
let ops (r : P.request) =
  match (r.P.op, r.P.prog) with
  | (P.Dot | P.Axpy | P.Sum), _ -> Array.length r.P.x
  | P.Program, [ "axpy"; "dot" ] -> 2 * Array.length r.P.x
  | P.Program, _ -> Array.length r.P.x
  | _ -> 1

(* FNV-1a over the result's bit patterns. *)
let digest (res : float array array) =
  let h = ref 0xcbf29ce484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  Array.iter
    (fun e ->
      mix (Int64.of_int (Array.length e));
      Array.iter (fun x -> mix (Int64.bits_of_float x)) e)
    res;
  !h

let encode req = P.frame_of_string (J.to_string_compact (P.request_to_json req))

let decode payload =
  match J.parse payload with Ok d -> P.response_of_json d | Error e -> Error e

(* One answered (or refused) request. *)
type record = {
  stream : int;
  seq : int;
  t0 : float;  (** encode start, ns *)
  t1 : float;  (** decode end, ns *)
  outcome : char;  (** 'o' result, 's' shed, 'f' failed or undecodable *)
  dig : int64;
  chosen : string option;
  nops : int;
  qbytes : int;
  rbytes : int;
}

let now = Obs.Clock.now_ns

let record_of ~stream ~seq ~t0 ~t1 ~nops ~qbytes ~rbytes resp =
  let outcome, dig, chosen =
    match resp with
    | Ok (P.Result { result; chosen; _ }) -> ('o', digest result, chosen)
    | Ok (P.Shed _) -> ('s', 0L, None)
    | _ -> ('f', 0L, None)
  in
  { stream; seq; t0; t1; outcome; dig; chosen; nops; qbytes; rbytes }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let write_all fd s =
  let n = String.length s in
  let k = ref 0 in
  while !k < n do
    k := !k + Unix.write_substring fd s !k (n - !k)
  done

(* One synchronous connection: one request in flight, next request
   only after the reply.  Runs until [t_end] (ns) or [limit] requests. *)
let rpc_conn ?spans ~kind ~seed ~stream ~t_end ~limit fd =
  let out = ref [] in
  let seq = ref 0 in
  while !seq < limit && now () < t_end do
    let req = request kind ~seed ~stream !seq in
    let t0 = now () in
    let frame = encode req in
    let t1 = now () in
    write_all fd frame;
    let t2 = now () in
    let payload =
      match P.read_frame fd with Some p -> p | None -> failwith "server closed the connection"
    in
    let t3 = now () in
    let resp = decode payload in
    let t4 = now () in
    (match spans with
    | Some sp ->
        let r = Spans.add sp ~req:!seq "request" t0 t4 in
        ignore (Spans.add sp ~parent:r ~req:!seq "client.encode" t0 t1);
        ignore (Spans.add sp ~parent:r ~req:!seq "client.io" t1 t2);
        ignore (Spans.add sp ~parent:r ~req:!seq "client.decode" t3 t4)
    | None -> ());
    out :=
      record_of ~stream ~seq:!seq ~t0 ~t1:t4 ~nops:(ops req) ~qbytes:(String.length frame)
        ~rbytes:(String.length payload + 4) resp
      :: !out;
    incr seq
  done;
  !out

(* Rpc load: one driver thread per connection. *)
let rpc ?spans ~kind ~seed ~streams ~t_end ~limit fds =
  let results = Array.make (List.length fds) [] in
  let threads =
    List.mapi
      (fun i fd ->
        let sp = Option.map (fun a -> a.(i)) spans in
        Thread.create
          (fun () ->
            results.(i) <-
              rpc_conn ?spans:sp ~kind ~seed ~stream:(List.nth streams i) ~t_end ~limit fd)
          ())
      fds
  in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

type pconn = {
  fd : Unix.file_descr;
  pstream : int;
  defr : P.deframer;
  mutable pend : string;  (** encoded bytes the kernel has not taken yet *)
  inflight : (int, int * float * int * int) Hashtbl.t;  (** id -> seq, t0, ops, bytes *)
  mutable next : int;
}

(* Pipelined load from one driver thread: every connection keeps
   [depth] requests in flight; each reply immediately triggers a fresh
   request on its connection until [t_end] (or [limit] requests per
   connection), then the window drains. *)
let pipelined ?spans ~kind ~seed ~streams ~depth ~t_end ~limit fds =
  let conns =
    List.map2
      (fun fd s ->
        Unix.set_nonblock fd;
        { fd; pstream = s; defr = P.deframer (); pend = ""; inflight = Hashtbl.create 64; next = 0 })
      fds streams
  in
  let out = ref [] in
  let span ?parent ?req name t0 t1 =
    match spans with Some sp -> Spans.add sp ?parent ?req name t0 t1 | None -> -1
  in
  let send c =
    let req = request kind ~seed ~stream:c.pstream c.next in
    let t0 = now () in
    let frame = encode req in
    ignore (span ~req:c.next "client.encode" t0 (now ()));
    c.pend <- c.pend ^ frame;
    Hashtbl.replace c.inflight req.P.id (c.next, t0, ops req, String.length frame);
    c.next <- c.next + 1
  in
  let flush c =
    if c.pend <> "" then begin
      let t0 = now () in
      let n = String.length c.pend in
      let k =
        try Unix.write_substring c.fd c.pend 0 n
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
      in
      c.pend <- String.sub c.pend k (n - k);
      ignore (span "client.io" t0 (now ()))
    end
  in
  let buf = Bytes.create 65536 in
  let absorb c payload =
    let t2 = now () in
    let resp = decode payload in
    let t3 = now () in
    let id = match resp with Ok r -> P.response_id r | Error _ -> -1 in
    match Hashtbl.find_opt c.inflight id with
    | None -> failwith "reply with an unknown correlation id"
    | Some (seq, t0, nops, qbytes) ->
        Hashtbl.remove c.inflight id;
        (match spans with
        | Some _ ->
            let r = span ~req:seq "request" t0 t3 in
            ignore (span ~parent:r ~req:seq "client.decode" t2 t3)
        | None -> ());
        out :=
          record_of ~stream:c.pstream ~seq ~t0 ~t1:t3 ~nops ~qbytes
            ~rbytes:(String.length payload + 4) resp
          :: !out;
        if c.next < limit && now () < t_end then send c
  in
  let read c =
    let continue = ref true in
    while !continue do
      let t0 = now () in
      match Unix.read c.fd buf 0 (Bytes.length buf) with
      | 0 -> failwith "server closed the connection"
      | n -> (
          match P.feed c.defr buf n with
          | Ok frames ->
              ignore (span "client.io" t0 (now ()));
              List.iter (absorb c) frames
          | Error e -> failwith e)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  List.iter
    (fun c ->
      for _ = 1 to min depth limit do
        send c
      done;
      flush c)
    conns;
  let busy () = List.exists (fun c -> Hashtbl.length c.inflight > 0) conns in
  while busy () do
    let writers = List.filter_map (fun c -> if c.pend <> "" then Some c.fd else None) conns in
    let readable, writable, _ =
      try Unix.select (List.map (fun c -> c.fd) conns) writers [] 0.1
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun c -> if List.mem c.fd readable then read c) conns;
    List.iter (fun c -> if List.mem c.fd writable || c.pend <> "" then flush c) conns
  done;
  List.iter (fun c -> Unix.clear_nonblock c.fd) conns;
  !out
