let read path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let cpu () =
  Option.bind (read "/proc/cpuinfo") (fun text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = "model name" ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None))

(* HEAD read from .git directly: a loose ref, else packed-refs *)
let head_rev () =
  let ( let* ) = Option.bind in
  let* head = Option.map String.trim (read ".git/HEAD") in
  if not (String.starts_with ~prefix:"ref: " head) then Some head
  else
    let r = String.sub head 5 (String.length head - 5) in
    match read (".git/" ^ r) with
    | Some h -> Some (String.trim h)
    | None ->
        let* packed = read ".git/packed-refs" in
        String.split_on_char '\n' packed
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ h; name ] when name = r -> Some h
               | _ -> None)

(* HEAD, plus "-dirty" when a tracked file differs from it: [git diff
   --quiet] exits 1 exactly then, and any other status (git missing,
   not a repository) keeps the bare sha *)
let git_rev () =
  Option.map
    (fun sha ->
      if Sys.command "git diff --quiet HEAD -- 2>/dev/null" = 1 then sha ^ "-dirty" else sha)
    (head_rev ())

let json ~isa ~cc =
  Json_out.Obj
    [ ("nproc", Json_out.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu", Json_out.Str (Option.value (cpu ()) ~default:"unknown"));
      ("ocaml", Json_out.Str Sys.ocaml_version);
      ("flambda", Json_out.Bool Build_info.flambda);
      ("cc", Json_out.Str cc);
      ("isa", Json_out.Str isa);
      ("git_rev", Json_out.Str (Option.value (git_rev ()) ~default:"unknown")) ]
