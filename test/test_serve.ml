(* The serving layer's contract: wire codec exactness (hex-float
   transport of NaN / infinities / signed zero / subnormals), deframer
   reassembly under arbitrary fragmentation, bitwise equality of served
   batched responses against the scalar path for every op x tier over
   Check.Corpus adversarial operands, the admission bound with explicit
   shed responses, deadline sheds, and the zero-loss graceful drain. *)

module P = Serve.Protocol
module J = Obs.Json_out

let bits = Int64.bits_of_float

let check_elements msg (a : float array array) (b : float array array) =
  Alcotest.(check int) (msg ^ ": element count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i ea ->
      let eb = b.(i) in
      Alcotest.(check int) (msg ^ ": component count") (Array.length ea) (Array.length eb);
      Array.iteri
        (fun j c ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: element %d component %d" msg i j)
            (bits c) (bits eb.(j)))
        ea)
    a

(* --- codec ----------------------------------------------------------- *)

let specials =
  [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 4.9e-324;
     -4.9e-324; Float.max_float; Float.min_float; 1.0; -1.5 |]

let test_request_roundtrip () =
  let reqs =
    [ { P.id = 7; op = P.Add; tier = P.Mf2; sla = None; deadline_ms = Some 12.5; prog = [];
        x = [| [| 1.0; 4.9e-324 |] |]; y = [| [| Float.nan; -0.0 |] |]; z = [||] };
      { P.id = 8; op = P.Dot; tier = P.Mf3; sla = None; deadline_ms = None; prog = [];
        x = [| [| Float.infinity; 0.0; -0.0 |]; [| 1.0; 1e-300; 4.9e-324 |] |];
        y = [| [| -1.0; 2.0; 3.0 |]; [| Float.neg_infinity; 0.5; -0.25 |] |]; z = [||] };
      { P.id = 9; op = P.Sqrt; tier = P.Mf4; sla = None; deadline_ms = None; prog = [];
        x = [| [| 2.0; 1e-17; 1e-34; 4.9e-324 |] |]; y = [||]; z = [||] };
      { P.id = 10; op = P.Program; tier = P.Mf2; sla = None; deadline_ms = None;
        prog = [ "axpy"; "dot" ];
        x = [| [| 1.0; 4.9e-324 |] |];
        y = [| [| 2.0; -0.0 |]; [| 0.5; 1e-300 |] |];
        z = [| [| Float.nan; 3.0 |] |] };
      (* an sla request: v2 frame, tier derived from the operand width *)
      { P.id = 11; op = P.Mul; tier = P.Mf2; sla = Some 80; deadline_ms = None; prog = [];
        x = [| [| 1.5; 4.9e-324 |] |]; y = [| [| 0.75; -0.0 |] |]; z = [||] } ]
  in
  List.iter
    (fun r ->
      let doc = J.parse_exn (J.to_string (P.request_to_json r)) in
      match P.request_of_json doc with
      | Error e -> Alcotest.fail ("request did not round-trip: " ^ e)
      | Ok r' ->
          Alcotest.(check int) "id" r.P.id r'.P.id;
          Alcotest.(check string) "op" (P.op_name r.P.op) (P.op_name r'.P.op);
          Alcotest.(check string) "tier" (P.tier_name r.P.tier) (P.tier_name r'.P.tier);
          Alcotest.(check (option int)) "sla" r.P.sla r'.P.sla;
          Alcotest.(check (list string)) "prog" r.P.prog r'.P.prog;
          check_elements "x" r.P.x r'.P.x;
          check_elements "y" r.P.y r'.P.y;
          check_elements "z" r.P.z r'.P.z)
    reqs;
  (* every special double survives the hex transport bitwise *)
  let x = Array.map (fun f -> [| f; 0.0 |]) specials in
  let r =
    { P.id = 1; op = P.Sum; tier = P.Mf2; sla = None; deadline_ms = None; prog = []; x;
      y = [||]; z = [||] }
  in
  match P.request_of_json (J.parse_exn (J.to_string (P.request_to_json r))) with
  | Error e -> Alcotest.fail e
  | Ok r' -> check_elements "specials" x r'.P.x

let test_response_roundtrip () =
  let resps =
    [ P.Result
        { id = 3; result = Array.map (fun f -> [| f; -0.0 |]) specials; batch = 17;
          chosen = None; bound = None };
      (* an sla response: chosen tier + certified bound ride the frame *)
      P.Result
        { id = 6; result = [| [| 1.5; 4.9e-324 |] |]; batch = 1; chosen = Some "mf2";
          bound = Some 1.25e-30 };
      P.Shed { id = 4; reason = "queue_full" };
      P.Failed { id = 5; error = "no such op" } ]
  in
  List.iter
    (fun resp ->
      match P.response_of_json (J.parse_exn (J.to_string (P.response_to_json resp))) with
      | Error e -> Alcotest.fail e
      | Ok got -> (
          Alcotest.(check int) "id" (P.response_id resp) (P.response_id got);
          match (resp, got) with
          | P.Result a, P.Result b ->
              check_elements "result" a.result b.result;
              Alcotest.(check int) "batch" a.batch b.batch;
              Alcotest.(check (option string)) "chosen" a.chosen b.chosen;
              Alcotest.(check bool) "bound bitwise" true
                (match (a.bound, b.bound) with
                | None, None -> true
                | Some u, Some v -> Int64.equal (bits u) (bits v)
                | _ -> false)
          | P.Shed a, P.Shed b -> Alcotest.(check string) "reason" a.reason b.reason
          | P.Failed a, P.Failed b -> Alcotest.(check string) "error" a.error b.error
          | _ -> Alcotest.fail "response kind changed in flight"))
    resps

(* Frames the decoder must reject, each for the reason named. *)
let reject_frames =
  [ ( "unknown op",
      {|{"schema":"fpan-serve/1","id":1,"op":"cbrt","tier":"mf2","x":[["0x1p+0","0x0p+0"]]}|} );
    ( "unknown tier",
      {|{"schema":"fpan-serve/1","id":1,"op":"add","tier":"mf9","x":[["0x1p+0"]]}|} );
    ( "wrong component count",
      {|{"schema":"fpan-serve/1","id":1,"op":"sqrt","tier":"mf3","x":[["0x1p+0","0x0p+0"]]}|} );
    ( "missing y",
      {|{"schema":"fpan-serve/1","id":1,"op":"mul","tier":"mf2","x":[["0x1p+0","0x0p+0"]]}|} );
    ( "unknown key",
      {|{"schema":"fpan-serve/1","id":1,"op":"stats","junk":true}|} );
    ("bad schema", {|{"schema":"fpan-serve/9","id":1,"op":"stats"}|});
    ( "sla and tier together",
      {|{"schema":"fpan-serve/2","id":1,"op":"add","tier":"mf2","sla":80,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"]]}|} );
    ( "sla on an uncertifiable op",
      {|{"schema":"fpan-serve/2","id":1,"op":"exp","sla":80,"x":[["0x1p+0","0x0p+0"]]}|} );
    ( "sla out of range",
      {|{"schema":"fpan-serve/2","id":1,"op":"add","sla":500,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"]]}|} );
    ( "sla with non-uniform operand widths",
      {|{"schema":"fpan-serve/2","id":1,"op":"add","sla":80,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0"]]}|} );
    ( "sla with non-finite operands",
      {|{"schema":"fpan-serve/2","id":1,"op":"add","sla":80,"x":[["inf"]],"y":[["0x1p+0"]]}|} );
    ( "axpy length mismatch",
      {|{"schema":"fpan-serve/1","id":1,"op":"axpy","tier":"mf2","x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"]]}|} );
    ( "unknown program chain",
      {|{"schema":"fpan-serve/1","id":1,"op":"program","tier":"mf2","prog":["dot","sum"],"x":[["0x1p+0","0x0p+0"]]}|} );
    ( "program without prog",
      {|{"schema":"fpan-serve/1","id":1,"op":"program","tier":"mf2","x":[["0x1p+0","0x0p+0"]]}|} );
    ( "prog on a plain op",
      {|{"schema":"fpan-serve/1","id":1,"op":"sum","tier":"mf2","prog":["sum"],"x":[["0x1p+0","0x0p+0"]]}|} );
    ( "z on a plain op",
      {|{"schema":"fpan-serve/1","id":1,"op":"sum","tier":"mf2","x":[["0x1p+0","0x0p+0"]],"z":[["0x1p+0","0x0p+0"]]}|} );
    ( "program axpy;dot missing z",
      {|{"schema":"fpan-serve/1","id":1,"op":"program","tier":"mf2","prog":["axpy","dot"],"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"],["0x1p+1","0x0p+0"]]}|} ) ]

let test_request_validation () =
  List.iter
    (fun (msg, json) ->
      match P.request_of_json (J.parse_exn json) with
      | Ok _ -> Alcotest.fail (msg ^ ": accepted")
      | Error _ -> ())
    reject_frames

let test_deframer_fragmentation () =
  let payloads = [ "alpha"; ""; String.make 5000 'x'; "{\"last\":1}" ] in
  let stream = String.concat "" (List.map P.frame_of_string payloads) in
  (* every chunk size reassembles the same frames *)
  List.iter
    (fun chunk ->
      let d = P.deframer () in
      let got = ref [] in
      let pos = ref 0 in
      let n = String.length stream in
      while !pos < n do
        let len = min chunk (n - !pos) in
        let b = Bytes.of_string (String.sub stream !pos len) in
        (match P.feed d b len with
        | Ok frames -> got := !got @ frames
        | Error e -> Alcotest.fail e);
        pos := !pos + len
      done;
      Alcotest.(check (list string))
        (Printf.sprintf "chunk=%d" chunk)
        payloads !got)
    [ 1; 2; 3; 4; 5; 7; 4096; String.length stream ];
  (* oversized length prefix is refused *)
  let d = P.deframer () in
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 (Int32.of_int (P.max_frame + 1));
  match P.feed d evil 4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* A near-1-MiB frame arriving in 64 KiB reads, with a small frame
   straddling the tail: exercises the deframer's buffer growth,
   compaction, and cursor-reset paths. *)
let test_deframer_large_frame () =
  let big = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  let payloads = [ big; "tail" ] in
  let stream = String.concat "" (List.map P.frame_of_string payloads) in
  let d = P.deframer () in
  let got = ref [] in
  let pos = ref 0 in
  let n = String.length stream in
  while !pos < n do
    let len = min 65536 (n - !pos) in
    let b = Bytes.of_string (String.sub stream !pos len) in
    (match P.feed d b len with
    | Ok frames -> got := !got @ frames
    | Error e -> Alcotest.fail e);
    pos := !pos + len
  done;
  Alcotest.(check (list string)) "large frame reassembles" payloads !got

(* --- server fixture -------------------------------------------------- *)

let sock_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpan_serve_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  at_exit (fun () ->
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ());
  dir

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat sock_dir
    (Printf.sprintf "serve_test_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?queue_capacity ?max_batch ?window_us f =
  let path = fresh_sock () in
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      let srv =
        Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path) ?queue_capacity
          ?max_batch ?window_us ()
      in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop srv)
        (fun () -> f srv (Serve.Server.Unix_path path)))

let mk_req ?sla ?deadline_ms ?(prog = []) ?(z = [||]) ~id ~op ~tier ~x ~y () =
  { P.id; op; tier; sla; deadline_ms; prog; x; y; z }

let stats_int doc k =
  match Option.bind (J.member k doc) J.to_num with
  | Some f -> int_of_float f
  | None -> Alcotest.fail ("stats missing " ^ k)

(* --- bitwise server vs scalar over the adversarial corpus ------------ *)

let corpus_operands ~terms n =
  let rng = Random.State.make [| 0x5e7e; terms |] in
  Array.init n (fun i ->
      let c = Check.Corpus.scalar_case rng ~terms i in
      (c.Check.Corpus.x, c.Check.Corpus.y))

(* Requests for one (op, tier), ids from [first_id]; returns them with
   the next free id. *)
let requests_for_op ~tier ~op ~first_id =
  let terms = P.tier_terms tier in
  let ops = corpus_operands ~terms 24 in
  let reqs =
    match op with
    | P.Add | P.Mul | P.Div ->
        Array.to_list
          (Array.mapi
             (fun i (x, y) ->
               mk_req ~id:(first_id + i) ~op ~tier ~x:[| x |] ~y:[| y |] ())
             ops)
    | P.Sqrt | P.Exp | P.Log | P.Sin ->
        Array.to_list
          (Array.mapi
             (fun i (x, _) -> mk_req ~id:(first_id + i) ~op ~tier ~x:[| x |] ~y:[||] ())
             ops)
    | P.Dot ->
        let xs = Array.map fst ops and ys = Array.map snd ops in
        [ mk_req ~id:first_id ~op ~tier ~x:xs ~y:ys () ]
    | P.Axpy ->
        let xs = Array.map fst ops in
        let ys = Array.append [| fst ops.(0) |] (Array.map snd ops) in
        [ mk_req ~id:first_id ~op ~tier ~x:xs ~y:ys () ]
    | P.Sum -> [ mk_req ~id:first_id ~op ~tier ~x:(Array.map fst ops) ~y:[||] () ]
    | P.Poly_eval ->
        [ mk_req ~id:first_id ~op ~tier
            ~x:(Array.sub (Array.map fst ops) 0 8)
            ~y:[| snd ops.(1) |] () ]
    | P.Program ->
        (* one request per chain, over the same corpus operands, and an
           axpy;dot across three 64-element C blocks whose x holds a NaN
           payload at index 64, so the axpy block and the dot fold both
           fall back to their OCaml loops mid-request.  Its operands are
           moderate, so the fold is finite until that payload. *)
        let xs = Array.map fst ops and ys = Array.map snd ops in
        let el k = Array.init terms (fun j -> Float.ldexp (1.0 +. float_of_int (k mod 17)) (-60 * j)) in
        let lx = Array.init 130 el and ly = Array.init 130 (fun k -> el (k + 5)) in
        lx.(64).(0) <- Int64.float_of_bits 0x7ff8000000000badL;
        [ mk_req ~id:first_id ~op ~tier ~prog:[ "sum" ] ~x:xs ~y:[||] ();
          mk_req ~id:(first_id + 1) ~op ~tier ~prog:[ "mul"; "sum" ] ~x:xs ~y:ys ();
          mk_req ~id:(first_id + 2) ~op ~tier ~prog:[ "axpy"; "dot" ] ~x:xs
            ~y:(Array.append [| fst ops.(0) |] ys)
            ~z:xs ();
          mk_req ~id:(first_id + 3) ~op ~tier ~prog:[ "axpy"; "dot" ] ~x:lx
            ~y:(Array.append [| el 3 |] ly)
            ~z:ly () ]
    | P.Stats -> []
  in
  (reqs, first_id + List.length reqs)

(* --- hex codec and single-pass decoder --------------------------------- *)

(* The component codec before the C primitives: what float_to_wire and
   float_of_wire must stay byte for byte and bit for bit. *)
let reference_to_wire c =
  if Float.is_nan c then Printf.sprintf "nan:%Lx" (bits c) else Printf.sprintf "%h" c

let reference_of_wire s =
  if String.length s > 4 && String.sub s 0 4 = "nan:" then
    match Int64.of_string_opt ("0x" ^ String.sub s 4 (String.length s - 4)) with
    | Some b when Float.is_nan (Int64.float_of_bits b) -> Some (Int64.float_of_bits b)
    | _ -> None
  else float_of_string_opt s

let same_float_opt a b =
  match (a, b) with
  | None, None -> true
  | Some u, Some v -> Int64.equal (bits u) (bits v)
  | _ -> false

let show_float_opt = function
  | None -> "None"
  | Some f -> Printf.sprintf "Some %Lx" (bits f)

(* IEEE edges, NaN payloads (quiet, signalling, sign bit) and every
   component the adversarial corpus draws at each tier. *)
let codec_values () =
  let of_bits = Int64.float_of_bits in
  let edges =
    [ 0.0; -0.0; 4.9e-324; -4.9e-324; of_bits 0x000fffffffffffffL;
      of_bits 0x800fffffffffffffL; Float.min_float; -.Float.min_float; Float.max_float;
      -.Float.max_float; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
      of_bits 0x7ff8000000000000L; of_bits 0x7ff0000000000001L; of_bits 0x7ff4000000000000L;
      of_bits 0xfff8000000000000L; of_bits 0xfff0000000000001L; of_bits 0xffffffffffffffffL;
      of_bits 0x7fffffffffffffffL; 1.0; -1.5; 0.1; 3.0; 1e300; 1e-300; 0x1p-1022; 0x1p1023;
      0x1.0000000000001p0; 0x1.fffffffffffffp0 ]
  in
  let corpus =
    List.concat_map
      (fun terms ->
        let rng = Random.State.make [| 0xc0dec; terms |] in
        List.concat_map
          (fun i ->
            let c = Check.Corpus.scalar_case rng ~terms i in
            Array.to_list c.Check.Corpus.x @ Array.to_list c.Check.Corpus.y)
          (List.init 256 Fun.id))
      [ 2; 3; 4 ]
  in
  edges @ corpus

let check_decode s =
  let want = reference_of_wire s and got = P.float_of_wire s in
  if not (same_float_opt want got) then
    Alcotest.failf "float_of_wire %S: %s, reference %s" s (show_float_opt got)
      (show_float_opt want)

let check_value c =
  let want = reference_to_wire c in
  let got = P.float_to_wire c in
  if got <> want then Alcotest.failf "float_to_wire %Lx: %S, Printf %S" (bits c) got want;
  match P.float_of_wire got with
  | Some d when Int64.equal (bits d) (bits c) -> check_decode got
  | d -> Alcotest.failf "float_of_wire %S: %s, want %Lx" got (show_float_opt d) (bits c)

let test_hex_codec () =
  let values = codec_values () in
  List.iter check_value values;
  let rng = Random.State.make [| 0x4e7; 1 |] in
  for _ = 1 to 1 lsl 20 do
    check_value (Int64.float_of_bits (Random.State.bits64 rng))
  done;
  (* spellings only the general fallback takes (or nobody does), and
     every truncation of each and of the canonical strings *)
  let noncanonical =
    [ "0X1p+0"; "0x1.80p+1"; "0x1p+01"; "0x1_0p+0"; "1.5"; "inf"; "+0x1p+0"; "0x1p+1024";
      "0x0.8p-1023"; "0x1.p+0"; "nan:7FF8000000000000"; "nan:07ff8000000000001";
      "nan:7ff80000000000000"; "nan:7ff0000000000000"; "nan:0x7ff8000000000000"; "nan";
      "-nan:7ff8000000000000"; "-infinity"; "Infinity"; "0x0p-0"; "0x0p+1"; "-0x0p+0";
      "0x0.0000000000001p-1023"; "0x1.0000000000000p+0"; "0x1.00000000000001p+0";
      "0x1p-1023"; "0x1p+00"; "0x1p-0"; "0x1P+0"; "0x1.Ap+0"; " 0x1p+0"; "0x1p+0 "; "";
      "-"; "0x"; "0x1p"; "0x1p+"; "0x1.8p+1\000" ]
  in
  List.iter
    (fun s ->
      for len = 0 to String.length s do
        check_decode (String.sub s 0 len)
      done)
    (noncanonical @ List.map reference_to_wire values)

let bits_equal a b = Int64.equal (bits a) (bits b)

let same_elements a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ea eb -> Array.length ea = Array.length eb && Array.for_all2 bits_equal ea eb)
       a b

let same_request (a : P.request) (b : P.request) =
  a.P.id = b.P.id && a.P.op = b.P.op && a.P.tier = b.P.tier && a.P.sla = b.P.sla
  && (match (a.P.deadline_ms, b.P.deadline_ms) with
     | None, None -> true
     | Some u, Some v -> bits_equal u v
     | _ -> false)
  && a.P.prog = b.P.prog && same_elements a.P.x b.P.x && same_elements a.P.y b.P.y
  && same_elements a.P.z b.P.z

let generic_decode frame =
  match J.parse frame with
  | Error e -> Error ("bad json: " ^ e)
  | Ok doc -> P.request_of_json doc

(* The single-pass decoder's contract on one frame: it does not raise,
   and a Some is exactly what the generic path decodes.  Returns
   whether it took the frame. *)
let check_frame label frame =
  match P.request_of_frame frame with
  | exception e -> Alcotest.failf "%s: request_of_frame raised %s" label (Printexc.to_string e)
  | None -> false
  | Some r -> (
      match generic_decode frame with
      | Ok r' ->
          if not (same_request r r') then
            Alcotest.failf "%s: single-pass decode differs from the generic one on %S" label
              frame;
          true
      | Error e -> Alcotest.failf "%s: single-pass took %S, generic rejects it: %s" label frame e)

let compact r = J.to_string_compact (P.request_to_json r)

let test_frame_decoder () =
  (* every op x tier over corpus operands, and sla frames at each
     element width: all take the single pass, bitwise *)
  let taken label r =
    let frame = compact r in
    if not (check_frame label frame) then Alcotest.failf "%s: single pass declined %S" label frame;
    if not (same_request r (Option.get (P.request_of_frame frame))) then
      Alcotest.failf "%s: decoded request differs from the one encoded" label
  in
  List.iter
    (fun tier ->
      List.iter
        (fun op ->
          List.iter
            (fun r -> taken (Printf.sprintf "%s/%s" (P.tier_name tier) (P.op_name op)) r)
            (fst (requests_for_op ~tier ~op ~first_id:1)))
        P.compute_ops)
    [ P.Mf2; P.Mf3; P.Mf4 ];
  List.iter
    (fun w ->
      let el k = Array.init w (fun j -> Float.ldexp (1.0 +. float_of_int k) (-60 * j)) in
      taken
        (Printf.sprintf "sla width %d" w)
        (mk_req ~sla:140 ~id:(1000 + w) ~op:P.Dot
           ~tier:(match w with 3 -> P.Mf3 | 4 -> P.Mf4 | _ -> P.Mf2)
           ~x:(Array.init 5 el) ~y:(Array.init 5 (fun k -> el (k + 7))) ()))
    [ 1; 2; 3; 4 ];
  taken "stats" (mk_req ~id:(-3) ~op:P.Stats ~tier:P.Mf2 ~x:[||] ~y:[||] ());
  taken "integral deadline"
    (mk_req ~deadline_ms:250.0 ~id:9 ~op:P.Add ~tier:P.Mf2 ~x:[| [| 1.0; 0.0 |] |]
       ~y:[| [| 2.0; 0.0 |] |] ());
  (* everything the generic decoder rejects, the single pass declines *)
  List.iter
    (fun (msg, frame) ->
      if check_frame msg frame then Alcotest.failf "%s: single pass accepted a reject" msg)
    reject_frames;
  (* mutations of a small frame *)
  let base =
    compact
      (mk_req ~id:12 ~op:P.Dot ~tier:P.Mf2
         ~x:[| [| 1.5; 0x1p-60 |]; [| -0.0; 4.9e-324 |] |]
         ~y:[| [| Float.nan; 0.0 |]; [| Float.infinity; -2.0 |] |] ())
  in
  let n = String.length base in
  let mutants = ref [] in
  let add s = mutants := s :: !mutants in
  for i = 0 to n do
    add (String.sub base 0 i);
    add (String.sub base 0 i ^ " " ^ String.sub base i (n - i));
    add (String.sub base 0 i ^ "\n" ^ String.sub base i (n - i))
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun c ->
        let b = Bytes.of_string base in
        Bytes.set b i c;
        add (Bytes.to_string b))
      [ Char.chr (Char.code base.[i] lxor 0x01); Char.chr (Char.code base.[i] lxor 0x20);
        '"'; '\\'; ','; ']'; '['; '0'; 'x'; '-'; ' '; '\000'; '\255' ]
  done;
  let replace sub by s =
    let ls = String.length sub in
    let rec go i =
      if i + ls > String.length s then s
      else if String.sub s i ls = sub then
        String.sub s 0 i ^ by ^ String.sub s (i + ls) (String.length s - i - ls)
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (sub, by) -> add (replace sub by base))
    [ ({|"id":12|}, {|"id":12.0|}); ({|"id":12|}, {|"id":1.2e1|}); ({|"id":12|}, {|"id":1e300|});
      ({|"id":12|}, {|"id":-0|}); ({|"id":12|}, {|"id":9007199254740993|});
      ({|"id":12|}, {|"id":9007199254740992|}); ({|"id":12|}, {|"id":0012|});
      ({|"id":12|}, {|"id":"12"|}); ({|"op"|}, {|"\u006fp"|}); ({|"x"|}, {|"\u0078"|});
      ({|"0x1.8p+0"|}, {|"0x1.8p\u002b0"|}); ({|"0x1.8p+0"|}, {|"0X1.8P+0"|});
      ({|"0x1.8p+0"|}, {|"0x1.80p+0"|}); ({|"0x1.8p+0"|}, {|"1.5"|});
      ({|"0x1.8p+0"|}, {|"0x1.8p+0","0x0p+0"|}); ({|"0x1.8p+0",|}, "");
      ({|"tier":"mf2"|}, {|"tier":"mf3"|}); ({|"tier":"mf2"|}, {|"sla":140|});
      ({|"tier":"mf2"|}, {|"tier":"mf2","tier":"mf2"|});
      ({|"tier":"mf2"|}, {|"tier":"mf2","junk":1|});
      ({|"tier":"mf2"|}, {|"tier":"mf2","deadline_ms":2.5|});
      ({|"tier":"mf2"|}, {|"tier":"mf2","deadline_ms":-0|});
      ({|"tier":"mf2"|}, {|"tier":"mf2","deadline_ms":30|});
      ({|"tier":"mf2"|}, {|"tier":"mf2","prog":[]|});
      ({|"tier":"mf2"|}, {|"tier":"mf2","z":[]|}); ({|"x":[|}, {|"x":[],"w":[|});
      ({|"y":[|}, {|"y":[[]],"q":[|}); ({|"schema":"fpan-serve/1"|}, {|"schema":"fpan-serve/2"|});
      ({|"schema":"fpan-serve/1",|}, "") ];
  add (base ^ " ");
  add (base ^ "{}");
  add (replace {|"x":[|} {|"x":[],"z":[|} base);
  let taken = List.filter (fun m -> check_frame "mutant" m) !mutants in
  (* the renamed-but-equivalent spellings still take the single pass *)
  List.iter
    (fun m ->
      if not (List.mem m taken) then Alcotest.failf "single pass declined %S" m)
    [ base; replace {|"tier":"mf2"|} {|"tier":"mf2","deadline_ms":30|} base;
      replace {|"id":12|} {|"id":9007199254740992|} base;
      replace {|"schema":"fpan-serve/1"|} {|"schema":"fpan-serve/2"|} base ]

(* id and sla are integers of magnitude at most 2^53: int_of_float of a
   larger integral double is unspecified, so such a frame is refused
   instead of echoing or range-checking an arbitrary int. *)
let test_integer_fields () =
  let frame k v =
    Printf.sprintf
      {|{"schema":"fpan-serve/2","id":%s,"op":"add","%s":%s,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"]]}|}
      (if k = "id" then v else "5")
      (if k = "id" then "tier" else "sla")
      (if k = "id" then {|"mf2"|} else v)
  in
  List.iter
    (fun (k, v) ->
      match generic_decode (frame k v) with
      | Ok r -> Alcotest.failf "%s %s accepted (id %d)" k v r.P.id
      | Error e ->
          if not (String.length e >= String.length k && String.sub e 0 (String.length k) = k)
          then Alcotest.failf "%s %s: rejected for another reason: %s" k v e)
    [ ("id", "1e300"); ("id", "-1e300"); ("id", "9007199254740994"); ("sla", "1e300");
      ("sla", "-1e300"); ("sla", "18014398509481984") ];
  (match generic_decode (frame "id" "9007199254740992") with
  | Ok r -> Alcotest.(check int) "id 2^53" (1 lsl 53) r.P.id
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "2^53 + 2" None (P.int_of_wire_num 0x1.0000000000001p53);
  Alcotest.(check (option int)) "-2^53" (Some (-(1 lsl 53))) (P.int_of_wire_num (-0x1p53));
  Alcotest.(check (option int)) "1.5" None (P.int_of_wire_num 1.5)

let test_bitwise_vs_scalar () =
  with_server ~queue_capacity:512 ~max_batch:64 ~window_us:2000. (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          List.iter
            (fun tier ->
              let next = ref 1 in
              let reqs =
                List.concat_map
                  (fun op ->
                    let rs, nid = requests_for_op ~tier ~op ~first_id:!next in
                    next := nid;
                    rs)
                  P.compute_ops
              in
              let resps = Serve.Client.call_many cl reqs in
              List.iter2
                (fun (req : P.request) resp ->
                  let label =
                    Printf.sprintf "%s/%s id=%d" (P.tier_name tier)
                      (P.op_name req.P.op) req.P.id
                  in
                  match resp with
                  | P.Result { result; batch; _ } -> (
                      Alcotest.(check bool) (label ^ ": batch >= 1") true (batch >= 1);
                      match Serve.Batcher.eval_one req with
                      | Ok expect -> check_elements label expect result
                      | Error e -> Alcotest.fail (label ^ ": scalar path failed: " ^ e))
                  | P.Shed { reason; _ } -> Alcotest.fail (label ^ ": shed " ^ reason)
                  | P.Failed { error; _ } -> Alcotest.fail (label ^ ": " ^ error)
                  | P.Stats_reply _ -> Alcotest.fail (label ^ ": stats?"))
                reqs resps)
            [ P.Mf2; P.Mf3; P.Mf4 ]))

(* Batching actually happened and still matched the scalar path: a
   pipelined burst of adds must land in micro-batches larger than 1
   (window 50 ms, far beyond the burst's arrival spread). *)
let test_batches_form () =
  with_server ~queue_capacity:512 ~max_batch:128 ~window_us:50_000. (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let reqs =
            List.init 64 (fun i ->
                mk_req ~id:(i + 1) ~op:P.Add ~tier:P.Mf2
                  ~x:[| [| float_of_int i; 1e-20 |] |]
                  ~y:[| [| 1.0; -1e-21 |] |] ())
          in
          let resps = Serve.Client.call_many cl reqs in
          let max_batch_seen =
            List.fold_left
              (fun acc r ->
                match r with P.Result { batch; _ } -> max acc batch | _ -> acc)
              0 resps
          in
          Alcotest.(check bool) "micro-batches formed" true (max_batch_seen > 1)))

(* --- adaptive SLA requests through the server ------------------------ *)

let sla_requests () =
  (* mixed ops and budgets over width-2 operands (the ladder starts at
     mf2 for all of them, so the budget alone drives escalation) *)
  let e i k =
    let v = 1.0 +. (float_of_int ((17 * i) + k) /. 64.0) in
    [| v; v *. 1e-18 |]
  in
  let next = ref 0 in
  let fresh () = incr next; !next in
  List.concat_map
    (fun q ->
      [ mk_req ~sla:q ~id:(fresh ()) ~op:P.Add ~tier:P.Mf2 ~x:[| e 1 0 |]
          ~y:[| e 2 1 |] ();
        mk_req ~sla:q ~id:(fresh ()) ~op:P.Mul ~tier:P.Mf2 ~x:[| e 3 0 |]
          ~y:[| e 4 1 |] ();
        mk_req ~sla:q ~id:(fresh ()) ~op:P.Div ~tier:P.Mf2 ~x:[| e 5 0 |]
          ~y:[| e 6 1 |] ();
        mk_req ~sla:q ~id:(fresh ()) ~op:P.Dot ~tier:P.Mf2
          ~x:(Array.init 4 (fun i -> e i 0))
          ~y:(Array.init 4 (fun i -> e i 1))
          ();
        mk_req ~sla:q ~id:(fresh ()) ~op:P.Sum ~tier:P.Mf2
          ~x:(Array.init 5 (fun i -> e i 2))
          ~y:[||] () ])
    [ 20; 60; 100; 140; 180 ]

let test_sla_end_to_end () =
  with_server ~queue_capacity:256 ~max_batch:32 ~window_us:1000. (fun srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let reqs = sla_requests () in
          let resps = Serve.Client.call_many cl reqs in
          List.iter2
            (fun (req : P.request) resp ->
              let q = Option.get req.P.sla in
              let label = Printf.sprintf "%s/sla=%d id=%d" (P.op_name req.P.op) q req.P.id in
              match resp with
              | P.Result { result; chosen; bound; _ } -> (
                  let chosen =
                    match chosen with
                    | Some c -> c
                    | None -> Alcotest.fail (label ^ ": no chosen tier on the reply")
                  in
                  let bound =
                    match bound with
                    | Some b -> b
                    | None -> Alcotest.fail (label ^ ": no certified bound on the reply")
                  in
                  (* the certificate honours the SLA threshold *)
                  (match
                     Adaptive.Sla.of_wire ~op:(P.op_name req.P.op) ~prog:req.P.prog
                   with
                  | None -> Alcotest.fail (label ^ ": op not certifiable?")
                  | Some op ->
                      let inp =
                        { Adaptive.Sla.x = req.P.x; y = req.P.y; z = req.P.z }
                      in
                      let scale = Adaptive.Certify.scale op inp in
                      Alcotest.(check bool) (label ^ ": bound within threshold") true
                        (bound <= Adaptive.Certify.threshold ~q ~scale));
                  (* the served answer is bitwise the scalar ladder's, and —
                     on a MultiFloat rung — the direct fixed-tier answer *)
                  (match Serve.Batcher.eval_adaptive req with
                  | Ok o ->
                      check_elements label o.Adaptive.Escalate.result result;
                      Alcotest.(check string) (label ^ ": chosen matches scalar ladder")
                        o.Adaptive.Escalate.chosen chosen
                  | Error e -> Alcotest.fail (label ^ ": scalar ladder failed: " ^ e));
                  match chosen with
                  | "mf2" | "mf3" | "mf4" -> (
                      let terms =
                        match chosen with "mf2" -> 2 | "mf3" -> 3 | _ -> 4
                      in
                      match
                        Serve.Batcher.eval_one (Serve.Batcher.pad_request ~terms req)
                      with
                      | Ok twin -> check_elements (label ^ ": fixed-tier twin") twin result
                      | Error e -> Alcotest.fail (label ^ ": twin failed: " ^ e))
                  | "bigfloat" -> ()
                  | t -> Alcotest.fail (label ^ ": unknown tier " ^ t))
              | P.Shed { reason; _ } -> Alcotest.fail (label ^ ": shed " ^ reason)
              | P.Failed { error; _ } -> Alcotest.fail (label ^ ": " ^ error)
              | P.Stats_reply _ -> Alcotest.fail (label ^ ": stats?"))
            reqs resps;
          (* the stats document saw the SLA traffic *)
          let doc = Serve.Server.stats_doc srv in
          (match Obs.Schema.validate Obs.Schemas.serve_stats doc with
          | Ok () -> ()
          | Error vs -> Alcotest.fail (String.concat "; " vs));
          match J.member "sla" doc with
          | Some sla_doc ->
              Alcotest.(check int) "sla requests counted" (List.length reqs)
                (stats_int sla_doc "requests");
              Alcotest.(check bool) "escalations counted" true
                (stats_int sla_doc "escalations" >= 0)
          | None -> Alcotest.fail "stats missing the sla block"))

(* --- admission bound and explicit sheds ------------------------------ *)

let poison_req ~id ~len =
  (* an mf4 axpy whose [len]-element answer (about 1 MB at len 10_000)
     outgrows the socket buffer: the batcher blocks writing it to a
     client that reads nothing until after the flood, so the poisons
     behind it fill the queue *)
  let elt i = [| 1.0 +. float_of_int i; 1e-17; 1e-34; 1e-51 |] in
  mk_req ~id ~op:P.Axpy ~tier:P.Mf4
    ~x:(Array.init len elt)
    ~y:(Array.init (len + 1) elt)
    ()

let test_admission_bound () =
  let cap = 4 in
  with_server ~queue_capacity:cap ~max_batch:1 ~window_us:0. (fun srv addr ->
      let slow = Serve.Client.connect addr in
      let flood = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close slow;
          Serve.Client.close flood)
        (fun () ->
          (* fill the batcher (1 executing) and the whole queue (cap) *)
          let n_poison = cap + 1 in
          let poisons =
            List.init n_poison (fun i -> poison_req ~id:(i + 1) ~len:10_000)
          in
          List.iter (Serve.Client.send slow) poisons;
          (* wait, on the server's own stats, until the io loop has
             ingested the poisons and the queue is full; the deadline
             stays under the server's 5 s limit on a stalled write *)
          let deadline = Unix.gettimeofday () +. 4.0 in
          while stats_int (Serve.Server.stats_doc srv) "queue_depth" < cap do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "the poisons never filled the queue";
            Unix.sleepf 0.001
          done;
          let n_flood = 40 in
          let floods =
            List.init n_flood (fun i ->
                mk_req ~id:(i + 100) ~op:P.Add ~tier:P.Mf2
                  ~x:[| [| 1.0; 0.0 |] |] ~y:[| [| 2.0; 0.0 |] |] ())
          in
          let flood_resps = Serve.Client.call_many flood floods in
          let shed_full =
            List.length
              (List.filter
                 (function P.Shed { reason = "queue_full"; _ } -> true | _ -> false)
                 flood_resps)
          in
          (* every flooded request was answered, none silently dropped *)
          Alcotest.(check int) "flood responses" n_flood (List.length flood_resps);
          Alcotest.(check bool) "overload produced explicit sheds" true (shed_full > 0);
          List.iter
            (function
              | P.Result _ | P.Shed { reason = "queue_full"; _ } -> ()
              | P.Shed { reason; _ } -> Alcotest.fail ("unexpected shed: " ^ reason)
              | P.Failed { error; _ } -> Alcotest.fail error
              | P.Stats_reply _ -> Alcotest.fail "stats?")
            flood_resps;
          (* the poisons are all answered: served, or refused explicitly *)
          List.iter
            (fun _ ->
              match Serve.Client.recv slow with
              | P.Result _ | P.Shed { reason = "queue_full"; _ } -> ()
              | P.Shed { reason; _ } -> Alcotest.fail ("poison shed: " ^ reason)
              | P.Failed { error; _ } -> Alcotest.fail ("poison failed: " ^ error)
              | P.Stats_reply _ -> Alcotest.fail "stats?")
            poisons;
          (* the bound held: depth never exceeded the capacity *)
          let doc = Serve.Server.stats_doc srv in
          (match Obs.Schema.validate Obs.Schemas.serve_stats doc with
          | Ok () -> ()
          | Error vs -> Alcotest.fail (String.concat "; " vs));
          Alcotest.(check bool) "max depth within bound" true
            (stats_int doc "queue_max_depth" <= cap);
          Alcotest.(check bool) "sheds counted" true
            (stats_int doc "shed_full" >= shed_full)))

let test_deadline_shed () =
  with_server ~queue_capacity:16 ~max_batch:8 ~window_us:5_000. (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let req =
            mk_req ~deadline_ms:0.0 ~id:1 ~op:P.Add ~tier:P.Mf2
              ~x:[| [| 1.0; 0.0 |] |] ~y:[| [| 2.0; 0.0 |] |] ()
          in
          match Serve.Client.call cl req with
          | P.Shed { reason = "deadline"; _ } -> ()
          | P.Shed { reason; _ } -> Alcotest.fail ("wrong reason: " ^ reason)
          | P.Result _ -> Alcotest.fail "expired deadline was served"
          | P.Failed { error; _ } -> Alcotest.fail error
          | P.Stats_reply _ -> Alcotest.fail "stats?"))

(* --- bad input on the wire ------------------------------------------- *)

let test_wire_errors () =
  with_server (fun _srv addr ->
      let send_raw payload =
        let fd =
          match addr with
          | Serve.Server.Unix_path p ->
              let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
              Unix.connect fd (ADDR_UNIX p);
              fd
          | _ -> Alcotest.fail "unix fixture expected"
        in
        P.write_frame fd payload;
        let resp = P.read_frame fd in
        Unix.close fd;
        resp
      in
      (* duplicate keys are rejected by the parser, as a Failed reply *)
      (match send_raw {|{"schema":"fpan-serve/1","id":3,"op":"stats","op":"add"}|} with
      | Some payload -> (
          match P.response_of_json (J.parse_exn payload) with
          | Ok (P.Failed _) -> ()
          | Ok _ -> Alcotest.fail "duplicate-key frame was not an error"
          | Error e -> Alcotest.fail e)
      | None -> Alcotest.fail "no reply to duplicate-key frame");
      (* unknown op: Failed with the offending id echoed *)
      match send_raw {|{"schema":"fpan-serve/1","id":42,"op":"cbrt","tier":"mf2"}|} with
      | Some payload -> (
          match P.response_of_json (J.parse_exn payload) with
          | Ok (P.Failed { id; _ }) -> Alcotest.(check int) "id echoed" 42 id
          | Ok _ -> Alcotest.fail "unknown op accepted"
          | Error e -> Alcotest.fail e)
      | None -> Alcotest.fail "no reply to unknown-op frame")

(* The server's single-pass decode and its generic fallback answer
   alike: a compact frame and the same request with whitespace (which
   the single pass declines) get byte-identical replies, and an id past
   2^53 is echoed as 0 on the error reply. *)
let test_fast_path_fallback () =
  with_server (fun _srv addr ->
      let fd =
        match addr with
        | Serve.Server.Unix_path p ->
            let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
            Unix.connect fd (ADDR_UNIX p);
            fd
        | _ -> Alcotest.fail "unix fixture expected"
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let call payload =
            P.write_frame fd payload;
            match P.read_frame fd with
            | Some reply -> reply
            | None -> Alcotest.fail "no reply"
          in
          let spaced s =
            String.concat ", " (String.split_on_char ',' s)
          in
          List.iter
            (fun r ->
              let frame = compact r in
              Alcotest.(check bool) "single pass takes the compact frame" true
                (P.request_of_frame frame <> None);
              Alcotest.(check bool) "single pass declines the spaced frame" true
                (P.request_of_frame (spaced frame) = None);
              Alcotest.(check string)
                (P.op_name r.P.op ^ ": same reply either way")
                (call frame) (call (spaced frame)))
            (fst (requests_for_op ~tier:P.Mf3 ~op:P.Dot ~first_id:5)
            @ [ mk_req ~sla:140 ~id:77 ~op:P.Mul ~tier:P.Mf2 ~x:[| [| 1.5; 0x1p-70 |] |]
                  ~y:[| [| 3.0; 0.0 |] |] () ]);
          match
            P.response_of_json
              (J.parse_exn
                 (call {|{"schema":"fpan-serve/1","id":1e300,"op":"add","tier":"mf2"}|}))
          with
          | Ok (P.Failed { id; _ }) -> Alcotest.(check int) "huge id echoed as 0" 0 id
          | Ok _ -> Alcotest.fail "huge id accepted"
          | Error e -> Alcotest.fail e))

(* One client vanishing with unread replies pending must not take the
   service down: SIGPIPE is ignored, so the failed reply write just
   marks the conn dead and the io domain sweeps (and closes) it. *)
let test_abrupt_disconnect () =
  with_server ~queue_capacity:256 ~max_batch:8 ~window_us:500. (fun _srv addr ->
      let rude = Serve.Client.connect addr in
      let reqs =
        List.init 64 (fun i ->
            mk_req ~id:(i + 1) ~op:P.Add ~tier:P.Mf2
              ~x:[| [| float_of_int i; 0.0 |] |] ~y:[| [| 1.0; 0.0 |] |] ())
      in
      List.iter (Serve.Client.send rude) reqs;
      (* hang up without reading a single reply *)
      Serve.Client.close rude;
      Unix.sleepf 0.1;
      (* the server survived and still serves fresh clients *)
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let req =
            mk_req ~id:1 ~op:P.Mul ~tier:P.Mf2 ~x:[| [| 3.0; 0.0 |] |]
              ~y:[| [| 7.0; 0.0 |] |] ()
          in
          match Serve.Client.call cl req with
          | P.Result _ -> ()
          | _ -> Alcotest.fail "server unhealthy after abrupt disconnect"))

(* --- stats over the wire --------------------------------------------- *)

let test_wire_stats () =
  with_server (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let req =
            mk_req ~id:1 ~op:P.Add ~tier:P.Mf3
              ~x:[| [| 1.0; 1e-20; 1e-40 |] |] ~y:[| [| 2.0; 0.0; 0.0 |] |] ()
          in
          (match Serve.Client.call cl req with
          | P.Result _ -> ()
          | _ -> Alcotest.fail "warm-up request failed");
          let doc = Serve.Client.stats cl in
          (match Obs.Schema.validate Obs.Schemas.serve_stats doc with
          | Ok () -> ()
          | Error vs -> Alcotest.fail (String.concat "; " vs));
          Alcotest.(check bool) "the warm-up was served" true
            (stats_int doc "completed" >= 1)))

(* --- graceful drain loses nothing ------------------------------------ *)

let test_graceful_drain () =
  with_server ~queue_capacity:256 ~max_batch:32 ~window_us:5_000. (fun srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let n = 100 in
          let reqs =
            List.init n (fun i ->
                mk_req ~id:(i + 1) ~op:P.Mul ~tier:P.Mf2
                  ~x:[| [| float_of_int (i + 1); 1e-18 |] |]
                  ~y:[| [| 3.0; -1e-19 |] |] ())
          in
          List.iter (Serve.Client.send cl) reqs;
          (* let the io loop ingest the burst, then pull the rug *)
          Unix.sleepf 0.05;
          Serve.Server.stop srv;
          let resps = ref [] in
          (try
             for _ = 1 to n do
               resps := Serve.Client.recv cl :: !resps
             done
           with Failure _ -> ());
          let n_result =
            List.length
              (List.filter (function P.Result _ -> true | _ -> false) !resps)
          in
          let n_closed =
            List.length
              (List.filter
                 (function P.Shed { reason = "closed"; _ } -> true | _ -> false)
                 !resps)
          in
          (* every frame got an answer: served or explicitly refused *)
          Alcotest.(check int) "all requests answered" n (List.length !resps);
          Alcotest.(check int) "answers partition into served + closed" n
            (n_result + n_closed);
          (* zero accepted requests were lost *)
          let doc = Serve.Server.stats_doc srv in
          Alcotest.(check int) "completed = accepted" (stats_int doc "accepted")
            (stats_int doc "completed");
          Alcotest.(check int) "served = accepted" (stats_int doc "accepted") n_result;
          (* the listener is down: connecting now fails *)
          match Serve.Client.connect addr with
          | exception Unix.Unix_error _ -> ()
          | cl2 ->
              Serve.Client.close cl2;
              Alcotest.fail "listener still accepting after stop"))

(* Sched.drain_all (the signal-handler path) also drains the server:
   the on_shutdown hook runs before the workers stop. *)
let test_drain_all_hook () =
  let path = fresh_sock () in
  let sched = Runtime.Sched.create ~workers:2 () in
  let srv =
    Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path) ~max_batch:4
      ~window_us:1000. ()
  in
  let cl = Serve.Client.connect (Serve.Server.Unix_path path) in
  let n = 20 in
  let reqs =
    List.init n (fun i ->
        mk_req ~id:(i + 1) ~op:P.Add ~tier:P.Mf4
          ~x:[| [| 1.0; 1e-17; 1e-34; 1e-51 |] |]
          ~y:[| [| float_of_int i; 0.0; 0.0; 0.0 |] |] ())
  in
  List.iter (Serve.Client.send cl) reqs;
  Unix.sleepf 0.05;
  Runtime.Sched.drain_all ();
  let resps = ref [] in
  (try
     for _ = 1 to n do
       resps := Serve.Client.recv cl :: !resps
     done
   with Failure _ -> ());
  Serve.Client.close cl;
  Alcotest.(check int) "all answered through drain_all" n (List.length !resps);
  let doc = Serve.Server.stats_doc srv in
  Alcotest.(check int) "completed = accepted" (stats_int doc "accepted")
    (stats_int doc "completed")

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "hex codec vs Printf" `Quick test_hex_codec;
          Alcotest.test_case "single-pass decoder" `Quick test_frame_decoder;
          Alcotest.test_case "integer fields within 2^53" `Quick test_integer_fields;
          Alcotest.test_case "deframer fragmentation" `Quick test_deframer_fragmentation;
          Alcotest.test_case "deframer large frame" `Quick test_deframer_large_frame ] );
      ( "bitwise",
        [ Alcotest.test_case "server vs scalar, all ops x tiers" `Quick
            test_bitwise_vs_scalar;
          Alcotest.test_case "micro-batches form" `Quick test_batches_form ] );
      ( "sla",
        [ Alcotest.test_case "escalation end to end" `Quick test_sla_end_to_end ] );
      ( "admission",
        [ Alcotest.test_case "bound holds, sheds explicit" `Quick test_admission_bound;
          Alcotest.test_case "deadline shed" `Quick test_deadline_shed;
          Alcotest.test_case "wire errors" `Quick test_wire_errors;
          Alcotest.test_case "single pass = fallback" `Quick test_fast_path_fallback;
          Alcotest.test_case "abrupt disconnect survived" `Quick test_abrupt_disconnect;
          Alcotest.test_case "wire stats" `Quick test_wire_stats ] );
      ( "drain",
        [ Alcotest.test_case "graceful drain zero loss" `Quick test_graceful_drain;
          Alcotest.test_case "drain_all runs the hook" `Quick test_drain_all_hook ] ) ]
