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
    batched counterpart of an element array, mirroring
    {!Multifloat.Batch.V} so the generated planar MultiFloat
    kernels plug in directly.  The fold and update operations fix the
    accumulation order of the scalar kernels in {!Kernels.Make}, which
    is what makes batched results bitwise equal to the scalar path. *)
module type VEC = sig
  type elt
  type t

  val terms : int

  val lanes : int
  (** Rows {!dot_rows} folds side by side. *)

  val length : t -> int
  val create : int -> t
  val copy : t -> t
  val get : t -> int -> elt
  val set : t -> int -> elt -> unit
  val of_array : elt array -> t
  val to_array : t -> elt array
  val of_floats : float array -> t
  val to_floats : t -> float array
  val add : dst:t -> t -> t -> unit
  val sub : dst:t -> t -> t -> unit
  val mul : dst:t -> t -> t -> unit

  val axpy : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  (** [y.(i) <- add (mul alpha x.(i)) y.(i)]. *)

  val madd : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  (** [y.(yoff+i) <- add y.(yoff+i) (mul alpha x.(xoff+i))]. *)

  val dot : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc (mul x.(xoff+i) y.(yoff+i))]. *)

  val sum : init:elt -> x:t -> xoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc x.(xoff+i)]. *)

  val dot_rows :
    a:t -> aoff:int -> ld:int -> x:t -> xoff:int -> len:int -> dst:t -> lo:int -> hi:int -> unit
  (** [dst.(i) <- dot ~init:zero ~x:a ~xoff:(aoff + i*ld) ~y:x ~yoff:xoff
      ~len] for [lo <= i < hi]: the GEMV rows, each bitwise its own
      [dot]. *)

  val axpy_dot : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> w:t -> init:elt -> elt
  (** Fused [axpy] + [dot ~x:y ~y:w] over [lo <= i < hi]; updates [y]
      in place and returns the fold from [init] — bitwise equal to the
      two-pass composition. *)

  val transpose : m:int -> n:int -> src:t -> dst:t -> unit
  (** Plane-wise matrix transpose of an [m*n] row-major [src] into a
      distinct [dst] (the panel-packing primitive: matrix columns
      become contiguous planar rows). *)
end

(** An arithmetic that additionally advertises a planar fast path.
    Every {!BATCHED} is an {!S} (first-class-module coercion included),
    so baselines without a planar representation simply stay {!S} and
    keep the scalar kernels — same kernel code, same op-count
    convention, the comparison still isolates the arithmetic. *)
module type BATCHED = sig
  include S

  module V : VEC with type elt = t
end
