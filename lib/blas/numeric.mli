(** The number interface the extended-precision BLAS kernels need.

    Every arithmetic under benchmark — native doubles, the MultiFloat
    FPAN kernels, QD, CAMPARY, the software FPU ({!Bigfloat}) at a
    fixed precision, and the emulated-binary32 GPU types — implements
    this signature, so all of them run the {e same} kernel code and the
    comparison isolates the cost of the arithmetic itself, as in the
    paper's benchmark methodology (Section 5). *)

module type S = sig
  type t

  val name : string
  (** Display name for benchmark tables. *)

  val bits : int
  (** Nominal precision in bits (53, 103, 156, or 208). *)

  val zero : t
  val of_float : float -> t
  val to_float : t -> float
  val add : t -> t -> t
  val mul : t -> t -> t
end

(** Planar (structure-of-arrays) vectors over an arithmetic: the
    batched counterpart of an element array.  It is
    {!Multifloat.Batch.V} itself, so the generated planar MultiFloat
    kernels plug in directly.  The fold and update operations fix the
    accumulation order of the scalar kernels in {!Kernels.Make}, which
    is what makes batched results bitwise equal to the scalar path. *)
module type VEC = Multifloat.Batch.V

(** An arithmetic that additionally advertises a planar fast path.
    Every {!BATCHED} is an {!S} (first-class-module coercion included),
    so baselines without a planar representation simply stay {!S} and
    keep the scalar kernels — same kernel code, same op-count
    convention, the comparison still isolates the arithmetic. *)
module type BATCHED = sig
  include S

  module V : VEC with type elt = t
end
