(* The environment block every result carries: the machine, the
   toolchain and the run's own settings. *)

module J = Obs.Json_out

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let field_of_lines text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.trim (String.sub line 0 i) = key ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | Some t -> Option.value (field_of_lines t "model name") ~default:"unknown"
  | None -> "unknown"

(* Resolve HEAD by reading .git directly; a source tree that is not a
   checkout reports "unknown". *)
let git_rev () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.length head > 5 && String.sub head 0 5 = "ref: " with
      | false -> head
      | true -> (
          let r = String.sub head 5 (String.length head - 5) in
          match read_file (".git/" ^ r) with
          | Some h -> trim h
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some p ->
                  String.split_on_char '\n' p
                  |> List.find_map (fun line ->
                         match String.split_on_char ' ' line with
                         | [ h; name ] when name = r -> Some h
                         | _ -> None)
                  |> Option.value ~default:"unknown")))

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  match Option.bind (read_file "/proc/self/status") (fun t -> field_of_lines t "VmHWM") with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> nan)
  | None -> nan

(* Ticks (1/100 s) the hypervisor ran something else while a vCPU of
   this guest wanted to run, summed over CPUs: the 8th field of the
   "cpu" line of /proc/stat.  A run with many is a run on a busy host. *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> 0
  | Some t -> (
      match String.split_on_char '\n' t with
      | line :: _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' line) with
          | "cpu" :: fields when List.length fields >= 8 -> int_of_string (List.nth fields 7)
          | _ -> 0)
      | [] -> 0)

let block ~workload ~seed ~seconds ~trace ~sched_workers ~conns ~steal =
  J.Obj
    [ ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu", J.Str (cpu_model ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("flambda", J.Bool Build_info.flambda);
      ("git_rev", J.Str (git_rev ()));
      ("workload", J.Str workload);
      ("seed", J.Num (float_of_int seed));
      ("held_out_seed", J.Num (float_of_int Registry.held_out_seed));
      ("seconds", J.Num (float_of_int seconds));
      ("trace", J.Bool trace);
      ("sched_workers", J.Num (float_of_int sched_workers));
      ("connections", J.Num (float_of_int conns));
      ("steal_s", J.Num (float_of_int steal /. 100.0)) ]
