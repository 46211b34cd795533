(* Repeated-run timing and its order statistics.  Quantiles interpolate
   linearly between closest ranks, so an even-sized median is the
   midpoint of the middle pair. *)

type summary = { median : float; q1 : float; q3 : float; n : int; total : float }

let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile xs p = quantile_sorted (sorted xs) p

let summarize xs =
  let q = quantile_sorted (sorted xs) in
  { median = q 0.5; q1 = q 0.25; q3 = q 0.75; n = Array.length xs;
    total = Array.fold_left ( +. ) 0.0 xs }

let time ?(after_warmup = ignore) ~reps f =
  if reps < 1 then invalid_arg (Printf.sprintf "Obs.Sample.time: reps = %d < 1" reps);
  ignore (f ());
  after_warmup ();
  let walls = Array.make reps 0.0 in
  let rec go r =
    let t0 = Clock.now_ns () in
    let x = f () in
    walls.(r) <- (Clock.now_ns () -. t0) *. 1e-9;
    if r = reps - 1 then x else go (r + 1)
  in
  let last = go 0 in
  (summarize walls, last)

(* A rate falls as the wall grows, so its quartiles are the wall's swapped. *)
let to_json ?work s =
  let q1, q3 = match work with None -> (s.q1, s.q3) | Some w -> (w /. s.q3, w /. s.q1) in
  Json_out.(Obj [ ("q1", Num q1); ("q3", Num q3); ("n", Num (float_of_int s.n)) ])
