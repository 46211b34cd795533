(* The add/sub/mul cores are the generated [Fpan_scalar.Mf4] kernels
   (add4/mul4 networks, staged from the wire-program IR); the rest of
   the kernel is written here. *)

module K = struct
  type t = Fpan_scalar.Mf4.t = { x0 : float; x1 : float; x2 : float; x3 : float }

  let terms = 4
  let precision_bits = 215
  let error_exp = 208
  let zero = { x0 = 0.0; x1 = 0.0; x2 = 0.0; x3 = 0.0 }
  let of_float x = { x0 = x; x1 = 0.0; x2 = 0.0; x3 = 0.0 }
  let to_float a = a.x0
  let components a = [| a.x0; a.x1; a.x2; a.x3 |]

  let of_components c =
    assert (Array.length c = 4);
    { x0 = c.(0); x1 = c.(1); x2 = c.(2); x3 = c.(3) }

  let add = Fpan_scalar.Mf4.add
  let sub = Fpan_scalar.Mf4.sub
  let mul = Fpan_scalar.Mf4.mul
  let neg a = { x0 = -.a.x0; x1 = -.a.x1; x2 = -.a.x2; x3 = -.a.x3 }
  let add_float a f = add a (of_float f)
  let sub_float a f = add a (of_float (-.f))

  let mul_float a f =
    (* mul4 with y1 = y2 = y3 = 0; terms grouped strictly by total
       order: p10+e00 (order 1), p20+e10+carry (order 2),
       p30+e20+carries (order 3). *)
    let w0, w3 = Eft.two_prod a.x0 f in
    let w2, w8 = Eft.two_prod a.x1 f in
    let w6, w15 = Eft.two_prod a.x2 f in
    let w12 = a.x3 *. f in
    let w2, w3 = Eft.two_sum w2 w3 in
    let w6, w8 = Eft.two_sum w6 w8 in
    let w6, w3 = Eft.two_sum w6 w3 in
    let w12 = w12 +. w15 in
    let w12 = w12 +. w8 in
    let w12 = w12 +. w3 in
    let w6, w12 = Eft.two_sum w6 w12 in
    let w2, w6 = Eft.two_sum w2 w6 in
    let w0, w2 = Eft.two_sum w0 w2 in
    let w6, w12 = Eft.two_sum w6 w12 in
    let w2, w6 = Eft.two_sum w2 w6 in
    let w0, w2 = Eft.two_sum w0 w2 in
    let w6, w12 = Eft.two_sum w6 w12 in
    { x0 = w0; x1 = w2; x2 = w6; x3 = w12 }

  let scale_pow2 a k =
    { x0 = Float.ldexp a.x0 k;
      x1 = Float.ldexp a.x1 k;
      x2 = Float.ldexp a.x2 k;
      x3 = Float.ldexp a.x3 k }
end

include Ops.Make (K)

let mul_no_fma = Fpan_scalar.Mf4.mul_no_fma
