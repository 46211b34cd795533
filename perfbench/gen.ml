(* Seeded operand generation.  Every input of every workload is a
   function of (seed, stream, index), so a run can regenerate any
   request or round after the timed window to check its output. *)

let state ~seed ~stream k = Random.State.make [| seed; stream; k |]

(* A random nonoverlapping expansion: the leading component in
   +-[0.5, 2) (positive with [positive]), each tail term below 2^-54 of
   its predecessor, hence below half an ulp of it. *)
let expansion ?(positive = false) st terms =
  let u = Random.State.float st (if positive then 1.5 else 3.0) in
  let c = Array.make terms (if u < 1.5 then 0.5 +. u else 1.0 -. u) in
  for j = 1 to terms - 1 do
    c.(j) <- c.(j - 1) *. (Random.State.float st 2.0 -. 1.0) *. 0x1p-54
  done;
  c

module Planar (V : Blas.Numeric.VEC) (E : sig
  val of_components : float array -> V.elt
  val components : V.elt -> float array
end) =
struct
  let fill st v =
    for i = 0 to V.length v - 1 do
      V.set v i (E.of_components (expansion st V.terms))
    done

  let zero_elt = E.of_components (Array.make V.terms 0.0)

  let zero v =
    for i = 0 to V.length v - 1 do
      V.set v i zero_elt
    done

  let blit ~src ~dst =
    for i = 0 to V.length src - 1 do
      V.set dst i (V.get src i)
    done

  let bits_equal_elt a b =
    let ca = E.components a and cb = E.components b in
    Array.length ca = Array.length cb
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         ca cb

  let bits_equal a b =
    let n = V.length a in
    n = V.length b
    &&
    let ok = ref true in
    for i = 0 to n - 1 do
      if !ok && not (bits_equal_elt (V.get a i) (V.get b i)) then ok := false
    done;
    !ok

  (* Row [i] of the sequential ikj GEMM, rebuilt in the first [n]
     elements of [row] with the same madd sequence the sequential
     kernel runs, compared bitwise to row [i] of [c]. *)
  let gemm_row_equal ~n ~a ~b ~c ~row i =
    for j = 0 to n - 1 do
      V.set row j zero_elt
    done;
    for p = 0 to n - 1 do
      V.madd ~alpha:(V.get a ((i * n) + p)) ~x:b ~xoff:(p * n) ~y:row ~yoff:0 ~len:n
    done;
    let ok = ref true in
    for j = 0 to n - 1 do
      if !ok && not (bits_equal_elt (V.get c ((i * n) + j)) (V.get row j)) then ok := false
    done;
    !ok
end
