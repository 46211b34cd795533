(* Wire protocol: length-prefixed JSON frames, schema fpan-serve/1.
   Operands travel as C99 hex-float strings because they are the only
   JSON transport exact for every double (Json_out numbers render
   inf/nan as null).  Inbound documents are schema-validated before
   decoding; the Json_out parser itself rejects duplicate keys and
   trailing garbage, so nothing ambiguous reaches execution. *)

module J = Obs.Json_out

type tier = Mf2 | Mf3 | Mf4

let tier_terms = function Mf2 -> 2 | Mf3 -> 3 | Mf4 -> 4
let tier_name = function Mf2 -> "mf2" | Mf3 -> "mf3" | Mf4 -> "mf4"

let tier_of_name = function
  | "mf2" -> Some Mf2
  | "mf3" -> Some Mf3
  | "mf4" -> Some Mf4
  | _ -> None

type op = Add | Mul | Div | Sqrt | Exp | Log | Sin | Dot | Axpy | Sum | Poly_eval | Program | Stats

let op_name = function
  | Add -> "add"
  | Mul -> "mul"
  | Div -> "div"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Dot -> "dot"
  | Axpy -> "axpy"
  | Sum -> "sum"
  | Poly_eval -> "poly-eval"
  | Program -> "program"
  | Stats -> "stats"

let compute_ops = [ Add; Mul; Div; Sqrt; Exp; Log; Sin; Dot; Axpy; Sum; Poly_eval; Program ]

let op_of_name name =
  List.find_opt (fun o -> op_name o = name) (Stats :: compute_ops)

let arity = function
  | Stats -> 0
  | Sqrt | Exp | Log | Sin | Sum -> 1
  | Add | Mul | Div | Dot | Axpy | Poly_eval | Program -> 2

(* The multi-op chains a [Program] request may name: each is served
   by planar kernels bitwise the op-by-op composition.  ["mul"; "sum"]
   is elementwise mul then sum (the unfused spelling of DOT);
   ["axpy"; "dot"] updates y in place and dots it against z; ["sum"]
   is the plain fold (a 1-gate program). *)
let programs = [ [ "sum" ]; [ "mul"; "sum" ]; [ "axpy"; "dot" ] ]

let program_name chain = String.concat ";" chain

type request = {
  id : int;
  op : op;
  tier : tier;
      (* for SLA requests: the derived starting tier of the escalation
         ladder (the cheapest tier holding the operands untruncated) *)
  sla : int option;  (* accuracy SLA exponent q: absolute error <= scale * 2^-q *)
  deadline_ms : float option;
  prog : string list;
  x : float array array;
  y : float array array;
  z : float array array;
}

type response =
  | Result of {
      id : int;
      result : float array array;
      batch : int;
      chosen : string option;  (* SLA requests: the tier that met the budget *)
      bound : float option;  (* SLA requests: certified absolute error bound *)
    }
  | Shed of { id : int; reason : string }
  | Failed of { id : int; error : string }
  | Stats_reply of { id : int; stats : J.t }

let response_id = function
  | Result { id; _ } | Shed { id; _ } | Failed { id; _ } | Stats_reply { id; _ } -> id

(* --- hex-float element transport ------------------------------------ *)

(* %h prints every NaN as "nan", losing the payload (OCaml's own
   Float.nan is 0x7ff8000000000001, while float_of_string "nan" gives
   0x7ff8000000000000) — so NaNs carry their exact bit pattern.  Both
   directions run in C (hexfloat_stubs.c): the encoder writes exactly
   what [Printf "%h"] / ["nan:%Lx"] would, and the decoder parses
   exactly those strings in place, declining everything else. *)
external hex_encode : Bytes.t -> (int[@untagged]) -> (float[@unboxed]) -> (int[@untagged])
  = "caml_fpan_hex_encode_byte" "caml_fpan_hex_encode"
[@@noalloc]

external hex_decode :
  string -> (int[@untagged]) -> (int[@untagged]) -> float array -> (int[@untagged]) -> bool
  = "caml_fpan_hex_decode_byte" "caml_fpan_hex_decode"
[@@noalloc]

(* the longest encoding, "-0x1.fffffffffffffp+1023" *)
let hex_max_len = 24

let float_to_wire c =
  let b = Bytes.create hex_max_len in
  Bytes.sub_string b 0 (hex_encode b 0 c)

(* Any other spelling float_of_string accepts (decimal, "inf",
   uppercase, underscores, ...) and any "nan:" bit pattern Int64 reads
   as a NaN: the accepted language is this fallback's. *)
let float_of_wire_general s =
  if String.length s > 4 && String.sub s 0 4 = "nan:" then
    match Int64.of_string_opt ("0x" ^ String.sub s 4 (String.length s - 4)) with
    | Some b when Float.is_nan (Int64.float_of_bits b) -> Some (Int64.float_of_bits b)
    | _ -> None
  else float_of_string_opt s

(* Decode component [s] into [dst.(i)]; false when [s] is no float. *)
let decode_component s dst i =
  hex_decode s 0 (String.length s) dst i
  ||
  match float_of_wire_general s with
  | Some f ->
      dst.(i) <- f;
      true
  | None -> false

let float_of_wire s =
  let slot = [| 0.0 |] in
  if decode_component s slot 0 then Some slot.(0) else None

let element_to_json comps =
  J.List (Array.to_list (Array.map (fun c -> J.Str (float_to_wire c)) comps))

let elements_to_json els = J.List (Array.to_list (Array.map element_to_json els))

let element_of_json ~terms v =
  match J.to_list v with
  | None -> Error "operand element is not an array"
  | Some comps ->
      if List.length comps <> terms then
        Error (Printf.sprintf "operand element has %d components, tier wants %d"
                 (List.length comps) terms)
      else begin
        let out = Array.make terms 0.0 in
        let rec go i = function
          | [] -> Ok out
          | J.Str s :: rest ->
              if decode_component s out i then go (i + 1) rest
              else Error (Printf.sprintf "bad float component %S" s)
          | _ -> Error "operand component is not a string"
        in
        go 0 comps
      end

let elements_of_json ~terms v =
  match J.to_list v with
  | None -> Error "operand is not an array"
  | Some els ->
      let n = List.length els in
      let out = Array.make n [||] in
      let rec go i = function
        | [] -> Ok out
        | e :: rest -> (
            match element_of_json ~terms e with
            | Ok c ->
                out.(i) <- c;
                go (i + 1) rest
            | Error _ as err -> err)
      in
      go 0 els

(* flexible-width decode for SLA operands: each element at its own
   observed width; uniformity and the 1..4 range are checked by the
   request validator *)
let elements_of_json_flex v =
  match J.to_list v with
  | None -> Error "operand is not an array"
  | Some els ->
      let out = Array.make (List.length els) [||] in
      let rec go i = function
        | [] -> Ok out
        | e :: rest -> (
            match J.to_list e with
            | None -> Error "operand element is not an array"
            | Some comps -> (
                match element_of_json ~terms:(List.length comps) e with
                | Ok c ->
                    out.(i) <- c;
                    go (i + 1) rest
                | Error _ as err -> err))
      in
      go 0 els

(* --- request -------------------------------------------------------- *)

(* fpan-serve/1 is the fixed-tier protocol; frames carrying the
   adaptive-precision fields (sla / chosen / bound) are fpan-serve/2 *)
let schema_field = ("schema", J.Str "fpan-serve/1")
let schema_field_v2 = ("schema", J.Str "fpan-serve/2")

let request_to_json r =
  J.Obj
    ([ (if r.sla = None then schema_field else schema_field_v2);
       ("id", J.Num (float_of_int r.id));
       ("op", J.Str (op_name r.op)) ]
    @ (match r.sla with
      | None -> [ ("tier", J.Str (tier_name r.tier)) ]
      | Some q -> [ ("sla", J.Num (float_of_int q)) ])
    @ (match r.deadline_ms with None -> [] | Some d -> [ ("deadline_ms", J.Num d) ])
    @ (if r.prog = [] then []
       else [ ("prog", J.List (List.map (fun s -> J.Str s) r.prog)) ])
    @ (if Array.length r.x = 0 then [] else [ ("x", elements_to_json r.x) ])
    @ (if Array.length r.y = 0 then [] else [ ("y", elements_to_json r.y) ])
    @ if Array.length r.z = 0 then [] else [ ("z", elements_to_json r.z) ])

(* Integral JSON numbers an int field takes: doubles hold every integer
   of magnitude up to 2^53 exactly, and int_of_float of anything larger
   (1e300, say) is unspecified. *)
let max_wire_int = 1 lsl 53

let int_of_wire_num f =
  if Float.is_integer f && Float.abs f <= float_of_int max_wire_int then Some (int_of_float f)
  else None

let int_member key doc =
  match J.member key doc with
  | Some (J.Num f) -> (
      match int_of_wire_num f with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "%s is not an integer of magnitude at most 2^53" key))
  | _ -> Ok None

let ( let* ) = Result.bind

(* --- request validation (shared by both decoders) -------------------- *)

(* The operation and the tier (or the sla standing in for it), before
   any operand is decoded: a fixed tier fixes the operand width. *)
let resolve_head ~op ~tier ~sla =
  let* op =
    match op_of_name op with
    | Some op -> Ok op
    | None -> Error (Printf.sprintf "unknown op %S" op)
  in
  let* tier_opt =
    match (tier, sla) with
    | Some _, Some _ -> Error "sla and tier are mutually exclusive"
    | Some name, None -> (
        match tier_of_name name with
        | Some t -> Ok (Some t)
        | None -> Error (Printf.sprintf "unknown tier %S" name))
    | None, Some _ -> Ok None
    | None, None -> if op = Stats then Ok (Some Mf2) else Error "missing tier"
  in
  Ok (op, tier_opt)

(* Everything checked once the operands are decoded: which operands and
   prog the op takes, their shapes, and for an sla request the budget,
   the op's certifiability and the starting tier. *)
let finish_request ~id ~op ~tier_opt ~sla ~deadline_ms ~prog ~x ~y ~z =
  let* () =
    if op <> Program && prog <> [] then
      Error (Printf.sprintf "op %s takes no prog" (op_name op))
    else if op <> Program && Array.length z > 0 then
      Error (Printf.sprintf "op %s takes no operand z" (op_name op))
    else Ok ()
  in
  let* () =
    match op with
    | Stats -> Ok ()
    | Program -> (
        let nx = Array.length x and ny = Array.length y and nz = Array.length z in
        match prog with
        | [] -> Error "op program needs prog"
        | [ "sum" ] ->
            if nx = 0 then Error "op program needs operand x"
            else if ny > 0 || nz > 0 then Error "program sum takes only operand x"
            else Ok ()
        | [ "mul"; "sum" ] ->
            if nx = 0 then Error "op program needs operand x"
            else if nx <> ny then Error "vector operands differ in length"
            else if nz > 0 then Error "program mul;sum takes no operand z"
            else Ok ()
        | [ "axpy"; "dot" ] ->
            if nx = 0 then Error "op program needs operand x"
            else if ny <> nx + 1 then
              Error "program axpy;dot wants y = alpha followed by a vector of x's length"
            else if nz <> nx then
              Error "program axpy;dot wants z of x's length"
            else Ok ()
        | chain ->
            Error
              (Printf.sprintf "unsupported program %S (supported: %s)" (program_name chain)
                 (String.concat ", " (List.map program_name programs))))
    | _ -> (
        let need_y = arity op = 2 in
        match (Array.length x, Array.length y) with
        | 0, _ -> Error (Printf.sprintf "op %s needs operand x" (op_name op))
        | _, 0 when need_y -> Error (Printf.sprintf "op %s needs operand y" (op_name op))
        | _, ny when (not need_y) && ny > 0 ->
            Error (Printf.sprintf "op %s takes no operand y" (op_name op))
        | nx, ny -> (
            match op with
            | Add | Mul | Div -> if nx = 1 && ny = 1 then Ok () else Error "scalar op wants 1-element operands"
            | Sqrt | Exp | Log | Sin -> if nx = 1 then Ok () else Error "unary op wants a 1-element operand"
            | Dot -> if nx = ny then Ok () else Error "vector operands differ in length"
            | Axpy ->
                if ny = nx + 1 then Ok ()
                else Error "axpy wants y = alpha followed by a vector of x's length"
            | Sum -> Ok ()
            | Poly_eval -> if ny = 1 then Ok () else Error "poly-eval wants a 1-element point y"
            | Program | Stats -> Ok ()))
  in
  let* tier =
    match (tier_opt, sla) with
    | Some t, _ -> Ok t
    | None, None -> assert false
    | None, Some q ->
        (* an SLA stands in for the tier: validate the budget, the
           op's certifiability, and the operand shape, then start
           the ladder at the cheapest tier holding the operands *)
        if q < Adaptive.Sla.q_min || q > Adaptive.Sla.q_max then
          Error
            (Printf.sprintf "sla %d out of range [%d, %d]" q Adaptive.Sla.q_min
               Adaptive.Sla.q_max)
        else if Adaptive.Sla.of_wire ~op:(op_name op) ~prog = None then
          Error
            (Printf.sprintf "op %s cannot carry an sla (certifiable ops: %s)"
               (op_name op)
               (String.concat ", " Adaptive.Sla.supported_wire_ops))
        else if not (Adaptive.Sla.finite { Adaptive.Sla.x; y; z }) then
          Error "sla requires finite operand components"
        else (
          match Adaptive.Sla.width { Adaptive.Sla.x; y; z } with
          | Some w when w <= Adaptive.Sla.max_terms -> (
              match Adaptive.Sla.start_terms ~width:w with
              | 2 -> Ok Mf2
              | 3 -> Ok Mf3
              | _ -> Ok Mf4)
          | _ -> Error "sla operands must have a uniform element width of 1..4 components")
  in
  Ok { id; op; tier; sla; deadline_ms; prog; x; y; z }

(* --- request: generic decode of a parsed document -------------------- *)

let request_of_json doc =
  match Obs.Schema.validate Obs.Schemas.serve_request doc with
  | Error violations -> Error (String.concat "; " violations)
  | Ok () ->
      let* id = int_member "id" doc in
      let id = Option.value ~default:0 id in
      let* op =
        match J.member "op" doc with
        | Some (J.Str name) -> Ok name
        | _ -> Error "missing op"
      in
      let* sla = int_member "sla" doc in
      (* the schema has checked that a present tier is a string *)
      let tier = Option.bind (J.member "tier" doc) J.to_str in
      let* op, tier_opt = resolve_head ~op ~tier ~sla in
      let operand decode key =
        match J.member key doc with
        | None -> Ok [||]
        | Some v -> decode v
      in
      let decode =
        match tier_opt with
        | Some tier -> elements_of_json ~terms:(tier_terms tier)
        | None -> elements_of_json_flex
      in
      let* x = operand decode "x" in
      let* y = operand decode "y" in
      let* z = operand decode "z" in
      let* prog =
        match J.member "prog" doc with
        | None -> Ok []
        | Some v -> (
            match J.to_list v with
            | None -> Error "prog is not an array"
            | Some steps ->
                let rec go acc = function
                  | [] -> Ok (List.rev acc)
                  | J.Str s :: rest -> go (s :: acc) rest
                  | _ -> Error "prog step is not a string"
                in
                go [] steps)
      in
      let deadline_ms = Option.bind (J.member "deadline_ms" doc) J.to_num in
      finish_request ~id ~op ~tier_opt ~sla ~deadline_ms ~prog ~x ~y ~z

(* --- request: single pass over a compact frame ----------------------- *)

(* The frames request_to_json + to_string_compact write, decoded
   straight from the payload bytes: operands go from their component
   slices into float arrays with no tree and no substring in between.
   Anything outside that shape declines (None), and the caller falls
   back to J.parse + request_of_json: whitespace, escapes, duplicate or
   unknown keys, numbers other than plain integers, components that are
   not the canonical hex encoding, and every request the shared checks
   reject.  So a Some here is always what the generic path returns. *)
exception Decline

let request_of_frame s =
  let n = String.length s in
  let pos = ref 0 in
  let decline () = raise_notrace Decline in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let expect c = if at c then incr pos else decline () in
  (* an escape-free string; returns where its body starts and leaves
     pos just past the closing quote *)
  let rec body_end i =
    if i < n && String.unsafe_get s i <> '"' && String.unsafe_get s i <> '\\' then body_end (i + 1)
    else i
  in
  let span () =
    expect '"';
    let start = !pos in
    pos := body_end start;
    expect '"';
    start
  in
  let str () =
    let a = span () in
    String.sub s a (!pos - 1 - a)
  in
  (* -?[0-9]+, magnitude at most 2^53; "-0" declines since it means
     -0.0 as a deadline *)
  let int_ () =
    let neg = at '-' in
    if neg then incr pos;
    let start = !pos and v = ref 0 in
    while !pos < n && String.unsafe_get s !pos >= '0' && String.unsafe_get s !pos <= '9' do
      v := (!v * 10) + Char.code (String.unsafe_get s !pos) - Char.code '0';
      if !v > max_wire_int then decline ();
      incr pos
    done;
    if !pos = start || (neg && !v = 0) then decline ();
    if neg then - !v else !v
  in
  let list item =
    expect '[';
    if at ']' then incr pos
    else begin
      item ();
      while at ',' do
        incr pos;
        item ()
      done;
      expect ']'
    end
  in
  let comps = ref (Array.make 4 0.0) in
  let operand () =
    let els = ref (Array.make 16 [||]) and ne = ref 0 in
    list (fun () ->
        let k = ref 0 in
        list (fun () ->
            let a = span () in
            if !k = Array.length !comps then begin
              let grown = Array.make (2 * !k) 0.0 in
              Array.blit !comps 0 grown 0 !k;
              comps := grown
            end;
            if not (hex_decode s a (!pos - 1) !comps !k) then decline ();
            incr k);
        if !ne = Array.length !els then begin
          let grown = Array.make (2 * !ne) [||] in
          Array.blit !els 0 grown 0 !ne;
          els := grown
        end;
        !els.(!ne) <- Array.sub !comps 0 !k;
        incr ne);
    Array.sub !els 0 !ne
  in
  let seen = ref 0 in
  let id = ref 0 and op = ref "" and tier = ref None and sla = ref None in
  let deadline_ms = ref None and prog = ref [] in
  let x = ref [||] and y = ref [||] and z = ref [||] in
  let field () =
    let key = str () in
    expect ':';
    let bit =
      match key with
      | "schema" -> 1
      | "id" -> 2
      | "op" -> 4
      | "tier" -> 8
      | "sla" -> 16
      | "deadline_ms" -> 32
      | "prog" -> 64
      | "x" -> 128
      | "y" -> 256
      | "z" -> 512
      | _ -> decline ()
    in
    if !seen land bit <> 0 then decline ();
    seen := !seen lor bit;
    match key with
    | "schema" -> (
        match str () with "fpan-serve/1" | "fpan-serve/2" -> () | _ -> decline ())
    | "id" -> id := int_ ()
    | "op" -> op := str ()
    | "tier" -> tier := Some (str ())
    | "sla" -> sla := Some (int_ ())
    | "deadline_ms" -> deadline_ms := Some (float_of_int (int_ ()))
    | "prog" ->
        let steps = ref [] in
        list (fun () -> steps := str () :: !steps);
        prog := List.rev !steps
    | "x" -> x := operand ()
    | "y" -> y := operand ()
    | _ -> z := operand ()
  in
  match
    expect '{';
    field ();
    while at ',' do
      incr pos;
      field ()
    done;
    expect '}';
    (* schema, id and op are required *)
    if !pos <> n || !seen land 7 <> 7 then decline ()
  with
  | exception Decline -> None
  | () -> (
      match resolve_head ~op:!op ~tier:!tier ~sla:!sla with
      | Error _ -> None
      | Ok (op, tier_opt) -> (
          let width_ok =
            match tier_opt with
            | None -> true
            | Some t ->
                let w = tier_terms t in
                List.for_all (Array.for_all (fun e -> Array.length e = w)) [ !x; !y; !z ]
          in
          if not width_ok then None
          else
            match
              finish_request ~id:!id ~op ~tier_opt ~sla:!sla ~deadline_ms:!deadline_ms
                ~prog:!prog ~x:!x ~y:!y ~z:!z
            with
            | Ok r -> Some r
            | Error _ -> None))

(* --- response ------------------------------------------------------- *)

let response_to_json = function
  | Result { id; result; batch; chosen; bound } ->
      J.Obj
        ([ (if chosen = None && bound = None then schema_field else schema_field_v2);
           ("id", J.Num (float_of_int id));
           ("status", J.Str "ok");
           ("result", elements_to_json result);
           ("batch", J.Num (float_of_int batch)) ]
        @ (match chosen with None -> [] | Some c -> [ ("chosen", J.Str c) ])
        @ match bound with None -> [] | Some b -> [ ("bound", J.Str (float_to_wire b)) ])
  | Shed { id; reason } ->
      J.Obj
        [ schema_field;
          ("id", J.Num (float_of_int id));
          ("status", J.Str "shed");
          ("reason", J.Str reason) ]
  | Failed { id; error } ->
      J.Obj
        [ schema_field;
          ("id", J.Num (float_of_int id));
          ("status", J.Str "error");
          ("error", J.Str error) ]
  | Stats_reply { id; stats } ->
      J.Obj
        [ schema_field;
          ("id", J.Num (float_of_int id));
          ("status", J.Str "ok");
          ("stats", stats) ]

let response_of_json doc =
  match Obs.Schema.validate Obs.Schemas.serve_response doc with
  | Error violations -> Error (String.concat "; " violations)
  | Ok () -> (
      let* id = int_member "id" doc in
      let id = Option.value ~default:0 id in
      match Option.bind (J.member "status" doc) J.to_str with
      | Some "ok" -> (
          match J.member "stats" doc with
          | Some stats -> Ok (Stats_reply { id; stats })
          | None -> (
              match J.member "result" doc with
              | Some v -> (
                  (* components already validated as strings; any tier's
                     element width is accepted on the way back *)
                  match J.to_list v with
                  | None -> Error "result is not an array"
                  | Some els ->
                      let decode el =
                        match J.to_list el with
                        | None -> Error "result element is not an array"
                        | Some comps ->
                            element_of_json ~terms:(List.length comps) el
                      in
                      let rec go acc = function
                        | [] -> Ok (Array.of_list (List.rev acc))
                        | el :: rest -> (
                            match decode el with
                            | Ok c -> go (c :: acc) rest
                            | Error _ as e -> e)
                      in
                      let* result = go [] els in
                      let* batch = int_member "batch" doc in
                      let batch = Option.value ~default:1 batch in
                      let chosen = Option.bind (J.member "chosen" doc) J.to_str in
                      let* bound =
                        match Option.bind (J.member "bound" doc) J.to_str with
                        | None -> Ok None
                        | Some s -> (
                            match float_of_wire s with
                            | Some b -> Ok (Some b)
                            | None -> Error (Printf.sprintf "bad bound %S" s))
                      in
                      Ok (Result { id; result; batch; chosen; bound }))
              | None -> Error "ok response carries neither result nor stats"))
      | Some "shed" ->
          let reason =
            Option.value ~default:"unspecified" (Option.bind (J.member "reason" doc) J.to_str)
          in
          Ok (Shed { id; reason })
      | Some "error" ->
          let error =
            Option.value ~default:"unspecified" (Option.bind (J.member "error" doc) J.to_str)
          in
          Ok (Failed { id; error })
      | _ -> Error "missing status")

(* --- framing -------------------------------------------------------- *)

(* Both ends write into sockets the peer may have abruptly closed; the
   default SIGPIPE disposition would kill the whole process instead of
   letting the write raise Unix_error(EPIPE,...), which the callers
   handle by dropping the connection. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let max_frame = 16 * 1024 * 1024

let frame_of_string payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let write_frame fd payload =
  let data = frame_of_string payload in
  let n = String.length data in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd data !pos (n - !pos)
  done

let really_read fd buf off len =
  let pos = ref 0 in
  let eof = ref false in
  while (not !eof) && !pos < len do
    let k = Unix.read fd buf (off + !pos) (len - !pos) in
    if k = 0 then eof := true else pos := !pos + k
  done;
  !pos

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | 0 -> None
  | k when k < 4 -> failwith "Serve.Protocol: truncated frame header"
  | _ ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then
        failwith (Printf.sprintf "Serve.Protocol: bad frame length %d" len);
      let body = Bytes.create len in
      if really_read fd body 0 len < len then failwith "Serve.Protocol: truncated frame body";
      Some (Bytes.unsafe_to_string body)

(* --- incremental deframing ------------------------------------------ *)

(* A flat byte region with a read cursor: each feed blits only the new
   chunk and extracts frames in place, so receiving a near-max frame in
   small reads costs O(frame), not O(frame^2) as re-buffering the whole
   backlog on every call would.  The region is compacted (remainder
   shifted to offset 0) only right before it must grow, which keeps the
   shift amortized O(1) per byte. *)
type deframer = {
  mutable data : Bytes.t;
  mutable start : int;  (* offset of the first unconsumed byte *)
  mutable len : int;  (* unconsumed bytes from [start] *)
}

let deframer () = { data = Bytes.create 4096; start = 0; len = 0 }

let feed d bytes len =
  if d.start + d.len + len > Bytes.length d.data then begin
    if d.start > 0 then begin
      Bytes.blit d.data d.start d.data 0 d.len;
      d.start <- 0
    end;
    if d.len + len > Bytes.length d.data then begin
      let cap = ref (Bytes.length d.data) in
      while !cap < d.len + len do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit d.data 0 grown 0 d.len;
      d.data <- grown
    end
  end;
  Bytes.blit bytes 0 d.data (d.start + d.len) len;
  d.len <- d.len + len;
  let frames = ref [] in
  let err = ref None in
  let continue = ref true in
  while !continue && !err = None && d.len >= 4 do
    let flen = Int32.to_int (Bytes.get_int32_be d.data d.start) in
    if flen < 0 || flen > max_frame then
      err := Some (Printf.sprintf "bad frame length %d" flen)
    else if d.len - 4 >= flen then begin
      frames := Bytes.sub_string d.data (d.start + 4) flen :: !frames;
      d.start <- d.start + 4 + flen;
      d.len <- d.len - 4 - flen
    end
    else continue := false
  done;
  if d.len = 0 then d.start <- 0;
  match !err with Some e -> Error e | None -> Ok (List.rev !frames)
