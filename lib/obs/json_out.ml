(* Minimal JSON reader/writer for the machine-readable artifacts
   (BENCH_*.json, CHECK_report.json, TRACE_*.json).  No dependencies;
   pretty-printed so the files diff cleanly across runs.

   Lives in lib/obs, below every layer that emits JSON (lib/runtime
   and lib/check both depend on it).

   Numbers are emitted with the shortest decimal representation that
   round-trips to the same double ([parse (to_string (Num f))] is
   bitwise [f] for any finite [f]).  The previous fixed "%.6g" format
   silently truncated anything needing more than 6 significant digits
   — fatal for nanosecond timestamps and flop totals, which is exactly
   what the trace files carry. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- emission ------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no inf/nan literals: emit them as null.  Integral values
   below 2^53 print without an exponent (diff-friendly); everything
   else gets the shortest "%.*g" that parses back to the same bits. *)
let num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 9007199254740992.0 then Printf.sprintf "%.0f" f
  else begin
    let rec shortest p =
      if p >= 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else shortest (p + 1)
    in
    shortest 1
  end

let rec emit buf ~level v =
  let pad n = String.make (2 * n) ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (num f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (level + 1));
          emit buf ~level:(level + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad level);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (level + 1));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit buf ~level:(level + 1) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad level);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  emit buf ~level:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Single-line emission for wire protocols: same documents, none of
   the indentation bytes (a serve-protocol frame shrinks by ~40%).
   Strings skip the escape pass entirely when clean — on the serving
   hot path nearly every string is a hex float or a bare key. *)
let rec clean s i n =
  i >= n
  ||
  match String.unsafe_get s i with
  | '"' | '\\' -> false
  | c when Char.code c < 0x20 -> false
  | _ -> clean s (i + 1) n

let rec emit_compact buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (num f)
  | Str s ->
      Buffer.add_char buf '"';
      if clean s 0 (String.length s) then Buffer.add_string buf s
      else Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit_compact buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          if clean k 0 (String.length k) then Buffer.add_string buf k
          else Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          emit_compact buf item)
        fields;
      Buffer.add_char buf '}'

let to_string_compact v =
  let buf = Buffer.create 512 in
  emit_compact buf v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc;
  Printf.printf "  [wrote %s]\n%!" path

(* --- parsing -------------------------------------------------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit kw v =
    let l = String.length kw in
    if !pos + l <= n && String.sub s !pos l = kw then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ kw)
  in
  let rec body_end i =
    if i < n && String.unsafe_get s i <> '"' && String.unsafe_get s i <> '\\' then body_end (i + 1)
    else i
  in
  let parse_string () =
    expect '"';
    (* an escape-free string (every hex-float component and key on the
       serving path) is one scan and one String.sub; at the first
       backslash the scanned prefix seeds the escape-decoding loop *)
    let start = !pos in
    let stop = body_end start in
    if stop < n && String.unsafe_get s stop = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else
    let buf = Buffer.create 16 in
    Buffer.add_substring buf s start (stop - start);
    pos := stop;
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let cp =
              match int_of_string_opt ("0x" ^ hex) with
              | Some cp -> cp
              | None -> fail "bad \\u escape"
            in
            (* encode the code point as UTF-8 (surrogates untreated:
               the emitter only produces \u00XX control escapes) *)
            if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
            else if cp < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
            end
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec go () =
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                go ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          List (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          (* RFC 8259 leaves duplicate keys undefined; every consumer
             here would silently last-write-win, and the serving layer
             parses untrusted frames — reject them outright.  Small
             objects (the common case on the request path) use a linear
             scan; past a handful of keys the seen set spills into a
             table so a many-key adversarial frame stays O(n) instead
             of the O(n^2) assoc-list scan it could otherwise exploit. *)
          let nfields = ref 0 in
          let seen = ref None in
          let dup k =
            match !seen with
            | Some h -> Hashtbl.mem h k
            | None ->
                if !nfields < 8 then List.mem_assoc k !fields
                else begin
                  let h = Hashtbl.create 32 in
                  List.iter (fun (k', _) -> Hashtbl.replace h k' ()) !fields;
                  seen := Some h;
                  Hashtbl.mem h k
                end
          in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            if dup k then fail (Printf.sprintf "duplicate key %S" k);
            (match !seen with Some h -> Hashtbl.add h k () | None -> incr nfields);
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                go ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !fields)
        end
    | Some c ->
        if c = '-' || (c >= '0' && c <= '9') then Num (parse_number ())
        else fail "unexpected character"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok v
  with Parse_error m -> Error m

let parse_exn s = match parse s with Ok v -> v | Error m -> raise (Parse_error m)

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  parse s

(* --- accessors ------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None
