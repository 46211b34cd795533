(** Planar (structure-of-arrays) MultiFloat vectors.

    An n-element 2/3/4-term vector is [terms] parallel unboxed
    [floatarray]s, one per expansion component, instead of an array of
    boxed component records.  The batched operations run the
    branch-free FPAN wire sequences of {!Mf2}/{!Mf3}/{!Mf4}
    element-wise over the planes with no per-element heap allocation;
    gate and operand order match the scalar kernels exactly, so batched
    results are {e bitwise equal} to scalar loops over element arrays.

    The kernels run as C loops (batch_stubs.c) dispatched at run time
    to the widest SIMD clone the CPU supports ({!isa}), so each element
    loop's fixed dataflow streams through vector lanes: the paper's
    cross-element vectorization (Section 5), which the planar layout
    exists to feed.  Each C loop falls back to its OCaml twin wherever
    the bits could differ (a NaN among a block's outputs, or a [madd]
    of one vector onto itself at another offset), so results stay
    bitwise equal to the scalar kernels, NaN payloads included.

    Both forms are GENERATED from the FPAN wire programs by
    [lib/fpan_ir] ([gen/gen_batch.ml]); drift rules in this
    directory's dune file diff the committed batch.ml and
    batch_stubs.c against a fresh regeneration on every
    [dune runtest]. *)

val isa : unit -> string
(** The SIMD clone the C kernels run on this CPU: ["x86-64-v4"]
    (AVX-512), ["x86-64-v3"] (AVX2 and FMA) or ["default"] (baseline
    x86-64) on x86-64 glibc builds, ["portable"] (one plain build)
    elsewhere.  Benchmark artifacts record it next to kernel timings. *)

val cc : unit -> string
(** The C compiler that built the kernels: ["gcc "] or ["clang "]
    followed by its version string. *)

(** Planar vector operations over one MultiFloat size.  The fold and
    update operations fix the accumulation order of the scalar BLAS
    kernels (see the individual operations). *)
module type V = sig
  type elt
  (** The scalar MultiFloat element type. *)

  type t
  (** A planar vector of [elt]s. *)

  val terms : int

  val lanes : int
  (** Rows {!dot_rows} folds side by side: the generator constant W
      for the generated tiers, 1 for {!Of_scalar} (rows one at a
      time). *)

  val length : t -> int

  val create : int -> t
  (** Zero-filled planar vector. *)

  val copy : t -> t
  val get : t -> int -> elt
  val set : t -> int -> elt -> unit
  val of_array : elt array -> t
  val to_array : t -> elt array

  val of_floats : float array -> t
  (** Lift doubles: component 0 takes the value, the rest are zero. *)

  val to_floats : t -> float array
  (** Leading components. *)

  val add : dst:t -> t -> t -> unit
  (** Elementwise; [dst] may alias either operand.  All three vectors
      must have the same length ([Invalid_argument] otherwise, as for
      every operation below). *)

  val sub : dst:t -> t -> t -> unit
  val mul : dst:t -> t -> t -> unit

  val map : dst:t -> (elt -> elt) -> t -> unit
  (** [dst.(i) <- f src.(i)] in index order; [dst] may alias the
      source.  Because the elements are independent, the result is
      bitwise the scalar loop for any [f] — this is how scalar-only
      operations (division, square root, the elementary functions) run
      over planar batches. *)

  val map2 : dst:t -> (elt -> elt -> elt) -> t -> t -> unit
  (** Binary {!map}: [dst.(i) <- f a.(i) b.(i)]. *)

  val axpy : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  (** [y.(i) <- add (mul alpha x.(i)) y.(i)] for [lo <= i < hi]: the
      scalar AXPY update order. *)

  val madd : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  (** [y.(yoff+i) <- add y.(yoff+i) (mul alpha x.(xoff+i))]: the GEMM
      rank-1 row update, accumulator-first operand order. *)

  val dot : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc (mul x.(xoff+i) y.(yoff+i))]
      starting from [init]: the scalar DOT/GEMV accumulation order. *)

  val sum : init:elt -> x:t -> xoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc x.(xoff+i)] starting from
      [init]: the scalar SUM accumulation order. *)

  val dot_rows :
    a:t -> aoff:int -> ld:int -> x:t -> xoff:int -> len:int -> dst:t -> lo:int -> hi:int -> unit
  (** [dst.(i) <- dot ~init:zero ~x:a ~xoff:(aoff + i*ld) ~y:x ~yoff:xoff
      ~len] for [lo <= i < hi]: rows of a row-major matrix (leading
      dimension [ld]) folded against one shared vector, the GEMV and
      residual leaf.  The C kernel runs {!lanes} rows at a time, one
      row per vector lane: each row's products are staged a block at a
      time, and each lane runs the add network over its own row in
      index order, so every row is bitwise its own {!dot}.  A row whose
      lane accumulator held a NaN or an infinity at any step is
      recomputed by {!dot} (which falls back to the OCaml loop), so NaN
      payloads match too.
      A [dst] that is also [a] or [x] runs row by row, each row's store
      visible to the rows after it. *)
end

(** A generated tier: the {!V} kernels run the C loops, and the [_ml]
    operations are the generated OCaml loops the C loops fall back to,
    with the same contracts.  They are the bitwise reference the tests
    hold the C loops to. *)
module type TIER = sig
  include V

  val add_ml : dst:t -> t -> t -> unit
  val sub_ml : dst:t -> t -> t -> unit
  val mul_ml : dst:t -> t -> t -> unit
  val axpy_ml : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  val madd_ml : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  val dot_ml : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt
  val sum_ml : init:elt -> x:t -> xoff:int -> len:int -> elt

  val dot_rows_ml :
    a:t -> aoff:int -> ld:int -> x:t -> xoff:int -> len:int -> dst:t -> lo:int -> hi:int -> unit
  (** The per-row [dot_ml] loop. *)
end

module Mf1v : TIER with type elt = float
(** Native doubles in a single plane, so 53-bit rows run through the
    same batched kernels (and the same C templates, over one-gate
    programs). *)

module Mf2v : TIER with type elt = Mf2.t
module Mf3v : TIER with type elt = Mf3.t
module Mf4v : TIER with type elt = Mf4.t

(** What {!Of_scalar} needs from a scalar arithmetic: the
    component-array view plus the ring operations. *)
module type SCALAR = sig
  type t

  val terms : int
  val zero : t
  val of_float : float -> t
  val to_float : t -> float
  val components : t -> float array
  val of_components : float array -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
end

module Of_scalar (K : SCALAR) : V with type elt = K.t
(** Planar storage with element-at-a-time scalar arithmetic: same
    layout and accumulation orders as the generated vectors, for
    types without a specialized batch kernel (e.g. the emulated-float32
    GPU types). *)
