(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 1]. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs p = quantile_sorted (sorted xs) p
let median xs = quantile xs 0.5

(* Samples strictly above the [p] quantile: a percentile is reported
   as supported only when at least ten samples lie beyond it. *)
let beyond xs p =
  let q = quantile xs p in
  List.length (List.filter (fun x -> x > q) xs)

(* Quartiles and sample count, printed beside each median. *)
type summary = { q1 : float; q3 : float; n : int }

let summary xs =
  let a = sorted xs in
  { q1 = quantile_sorted a 0.25; q3 = quantile_sorted a 0.75; n = Array.length a }

(* Per-slice rates: cut [t0, t1) into slices of [len]; in each slice
   the rate is the weight completed after its first event divided by
   the time from its first event to its last.  [events] are (time,
   weight) pairs. *)
let slice_rates ~t0 ~t1 ~len events =
  let k = max 1 (int_of_float ((t1 -. t0) /. len)) in
  let first = Array.make k infinity and last = Array.make k neg_infinity in
  let w_first = Array.make k 0.0 and sum = Array.make k 0.0 in
  List.iter
    (fun (t, w) ->
      let i = int_of_float ((t -. t0) /. len) in
      if i >= 0 && i < k then begin
        sum.(i) <- sum.(i) +. w;
        if t < first.(i) then begin
          first.(i) <- t;
          w_first.(i) <- w
        end;
        if t > last.(i) then last.(i) <- t
      end)
    events;
  match
    List.filter_map
      (fun i ->
        if last.(i) > first.(i) then Some ((sum.(i) -. w_first.(i)) /. (last.(i) -. first.(i)))
        else None)
      (List.init k Fun.id)
  with
  | [] -> [ Array.fold_left ( +. ) 0.0 sum /. (t1 -. t0) ]
  | rates -> rates
