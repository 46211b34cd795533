(* Readiness: poll(2) behind a small capability interface.  The
   registration set lives in three parallel int arrays (fds, interest
   masks, revents out) that are handed to the C stub as-is, so a wait
   is one stub call and no per-call allocation beyond the event list
   it returns.  Slots are
   kept dense by swap-removal; a Hashtbl maps fd -> slot. *)

external poll_stub :
  int array -> int array -> int array -> int -> int -> int = "caml_fpan_poll"

external poll_bits : unit -> int * int * int * int * int * int = "caml_fpan_poll_bits"

let bit_in, bit_out, bit_err, bit_hup, bit_nval, _bit_pri = poll_bits ()

(* Unix.file_descr is an immediate int on every Unix port (the C stub
   relies on the same fact); this cast is what unixsupport.h's
   Int_val does on the other side of the boundary. *)
let int_of_fd : Unix.file_descr -> int = Obj.magic
let fd_of_int : int -> Unix.file_descr = Obj.magic

type event = {
  fd : Unix.file_descr;
  readable : bool;
  writable : bool;
  hangup : bool;
  error : bool;
}

type t = {
  mutable fds : int array;
  mutable events : int array;
  mutable revents : int array;
  mutable n : int;
  slots : (int, int) Hashtbl.t;  (* fd -> index below n *)
}

let create () =
  {
    fds = Array.make 64 (-1);
    events = Array.make 64 0;
    revents = Array.make 64 0;
    n = 0;
    slots = Hashtbl.create 64;
  }

let interest ~read ~write =
  (if read then bit_in else 0) lor if write then bit_out else 0

let grow t =
  let cap = Array.length t.fds in
  if t.n >= cap then begin
    let cap' = 2 * cap in
    let copy src mk = Array.init cap' (fun i -> if i < cap then src.(i) else mk) in
    t.fds <- copy t.fds (-1);
    t.events <- copy t.events 0;
    t.revents <- copy t.revents 0
  end

let add t fd ~read ~write =
  let k = int_of_fd fd in
  if Hashtbl.mem t.slots k then
    invalid_arg "Serve.Readiness.add: descriptor already registered";
  grow t;
  t.fds.(t.n) <- k;
  t.events.(t.n) <- interest ~read ~write;
  Hashtbl.replace t.slots k t.n;
  t.n <- t.n + 1

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.slots (int_of_fd fd) with
  | None -> invalid_arg "Serve.Readiness.modify: descriptor not registered"
  | Some i -> t.events.(i) <- interest ~read ~write

let remove t fd =
  let k = int_of_fd fd in
  match Hashtbl.find_opt t.slots k with
  | None -> ()
  | Some i ->
      let last = t.n - 1 in
      Hashtbl.remove t.slots k;
      if i < last then begin
        t.fds.(i) <- t.fds.(last);
        t.events.(i) <- t.events.(last);
        Hashtbl.replace t.slots t.fds.(i) i
      end;
      t.fds.(last) <- -1;
      t.events.(last) <- 0;
      t.n <- last

let mem t fd = Hashtbl.mem t.slots (int_of_fd fd)
let registered t = t.n

let event_of_mask fd mask =
  {
    fd;
    readable = mask land bit_in <> 0;
    writable = mask land bit_out <> 0;
    hangup = mask land bit_hup <> 0;
    error = mask land (bit_err lor bit_nval) <> 0;
  }

let wait t ~timeout_ms =
  (* chaos seam: a spurious wakeup (or injected EINTR) surfaces as an
     empty event list, exactly what a real EINTR produces below.  The
     disarmed hook is a single atomic branch returning Pass. *)
  match Chaos.Injector.wait_fault () with
  | Chaos.Fault.Spurious_wake | Chaos.Fault.Eintr -> []
  | _ -> (
      match poll_stub t.fds t.events t.revents t.n timeout_ms with
      | 0 -> []
      | _ ->
          let out = ref [] in
          for i = t.n - 1 downto 0 do
            let mask = t.revents.(i) in
            if mask <> 0 then out := event_of_mask (fd_of_int t.fds.(i)) mask :: !out
          done;
          !out
      | exception Unix.Unix_error (EINTR, _, _) -> [])

(* --- single-descriptor helpers -------------------------------------- *)

let one_fds = [| -1 |]

let poll1 fd ~read ~write ~timeout_ms =
  (* tiny fresh arrays per call: poll1 sits on slow paths (write
     stalls, doorbell waits), never in the per-event hot loop *)
  let fds = Array.copy one_fds in
  fds.(0) <- int_of_fd fd;
  let events = [| interest ~read ~write |] in
  let revents = [| 0 |] in
  match poll_stub fds events revents 1 timeout_ms with
  | 0 -> None
  | _ -> Some (event_of_mask fd revents.(0))
  | exception Unix.Unix_error (EINTR, _, _) -> None

let wait_readable fd ~timeout_ms =
  match poll1 fd ~read:true ~write:false ~timeout_ms with
  | Some e -> e.readable || e.hangup || e.error
  | None -> false

let wait_writable fd ~timeout_ms =
  match poll1 fd ~read:false ~write:true ~timeout_ms with
  | Some e -> e.writable || e.hangup || e.error
  | None -> false
