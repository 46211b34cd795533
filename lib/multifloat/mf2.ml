(* The add/sub/mul cores are the generated [Fpan_scalar.Mf2] kernels
   (add2/mul2 networks, staged from the wire-program IR); the rest of
   the kernel is written here. *)

module K = struct
  type t = Fpan_scalar.Mf2.t = { hi : float; lo : float }

  let terms = 2
  let precision_bits = 107
  let error_exp = 103 (* min of add (105) and mul (103) *)
  let zero = { hi = 0.0; lo = 0.0 }
  let of_float x = { hi = x; lo = 0.0 }
  let to_float a = a.hi
  let components a = [| a.hi; a.lo |]

  let of_components c =
    assert (Array.length c = 2);
    { hi = c.(0); lo = c.(1) }

  let add = Fpan_scalar.Mf2.add
  let sub = Fpan_scalar.Mf2.sub
  let mul = Fpan_scalar.Mf2.mul
  let neg a = { hi = -.a.hi; lo = -.a.lo }

  let add_float a f =
    (* add2 with y1 = 0: one TwoSum and one Add drop out. *)
    let s0, e0 = Eft.two_sum a.hi f in
    let v, vl = Eft.two_sum s0 a.lo in
    let w = vl +. e0 in
    let hi, lo = Eft.fast_two_sum v w in
    { hi; lo }

  let sub_float a f = add_float a (-.f)

  let mul_float a f =
    (* mul2 with y1 = 0: the p01 product drops out. *)
    let p00, e00 = Eft.two_prod a.hi f in
    let u = (a.lo *. f) +. e00 in
    let hi, lo = Eft.fast_two_sum p00 u in
    { hi; lo }

  let scale_pow2 a k = { hi = Float.ldexp a.hi k; lo = Float.ldexp a.lo k }
end

include Ops.Make (K)

let mul_no_fma = Fpan_scalar.Mf2.mul_no_fma
