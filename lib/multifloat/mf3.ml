(* The add/sub/mul cores are the generated [Fpan_scalar.Mf3] kernels
   (add3/mul3 networks, staged from the wire-program IR); the rest of
   the kernel is written here. *)

module K = struct
  type t = Fpan_scalar.Mf3.t = { x0 : float; x1 : float; x2 : float }

  let terms = 3
  let precision_bits = 161
  let error_exp = 156
  let zero = { x0 = 0.0; x1 = 0.0; x2 = 0.0 }
  let of_float x = { x0 = x; x1 = 0.0; x2 = 0.0 }
  let to_float a = a.x0
  let components a = [| a.x0; a.x1; a.x2 |]

  let of_components c =
    assert (Array.length c = 3);
    { x0 = c.(0); x1 = c.(1); x2 = c.(2) }

  let add = Fpan_scalar.Mf3.add
  let sub = Fpan_scalar.Mf3.sub
  let mul = Fpan_scalar.Mf3.mul
  let neg a = { x0 = -.a.x0; x1 = -.a.x1; x2 = -.a.x2 }
  let add_float a f = add a (of_float f)
  let sub_float a f = add a (of_float (-.f))

  (* No separate network: mul3 specialised to y1 = y2 = 0 is bitwise
     this on every well-formed expansion, specials included. *)
  let mul_float a f = mul a (of_float f)

  let scale_pow2 a k =
    { x0 = Float.ldexp a.x0 k; x1 = Float.ldexp a.x1 k; x2 = Float.ldexp a.x2 k }
end

include Ops.Make (K)

let mul_no_fma = Fpan_scalar.Mf3.mul_no_fma
