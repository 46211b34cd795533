(** Extended-precision BLAS kernels, generic over the arithmetic.

    The four kernels of the paper's evaluation (Section 5):

    - AXPY: [y <- alpha x + y]  (vector-vector)
    - DOT:  [x . y]             (vector-vector reduction)
    - GEMV: [y <- A x]          (matrix-vector, ij loop order)
    - GEMM: [C <- A B]          (matrix-matrix, ikj loop order)

    Matrices are dense row-major flat arrays.  One "operation" is one
    multiply plus one add (the numerical-linear-algebra convention the
    paper uses): AXPY and DOT over vectors of size [n] perform [n]
    operations, GEMV [n^2], GEMM [n^3].

    Each kernel has a sequential form; the planar {!Make_batched}
    kernels add a [_rt] form on the work-stealing scheduler
    ({!Runtime.Sched}), the OCaml analogue of the paper's
    thread-per-core OpenMP setup.  Results do not depend on the
    number of workers. *)

module Make (N : Numeric.S) : sig
  val axpy : alpha:N.t -> x:N.t array -> y:N.t array -> unit
  (** In-place [y.(i) <- alpha * x.(i) + y.(i)]. *)

  val dot : x:N.t array -> y:N.t array -> N.t

  val gemv : m:int -> n:int -> a:N.t array -> x:N.t array -> y:N.t array -> unit
  (** [y <- A x] with [A] an [m*n] row-major matrix. *)

  val gemm : m:int -> n:int -> k:int -> a:N.t array -> b:N.t array -> c:N.t array -> unit
  (** [C <- C + A B] with [A : m*k], [B : k*n], [C : m*n], ikj order. *)

  val vec_of_floats : float array -> N.t array
  val vec_to_floats : N.t array -> float array
end

(** The same four kernels over planar (structure-of-arrays) vectors:
    the fast path for arithmetics advertising {!Numeric.BATCHED}.

    Identical per-element arithmetic and accumulation orders to
    {!Make}, so sequential results are bitwise equal to the scalar
    path (asserted by [test/test_batch.ml]).  What changes is the data layout: one
    unboxed [floatarray] per expansion component instead of an array of
    boxed records, which removes the per-element pointer chase and heap
    allocation — the OCaml analogue of the paper's cross-element SIMD
    vectorization. *)
module Make_batched (N : Numeric.BATCHED) : sig
  module V : Numeric.VEC with type elt = N.t and type t = N.V.t

  val axpy : alpha:N.t -> x:V.t -> y:V.t -> unit
  (** In-place [y.(i) <- alpha * x.(i) + y.(i)]. *)

  val dot : x:V.t -> y:V.t -> N.t

  val gemv : m:int -> n:int -> a:V.t -> x:V.t -> y:V.t -> unit
  (** [y <- A x] with [A] an [m*n] row-major planar matrix: one
      {!Numeric.VEC.dot_rows} call, every row bitwise its scalar
      fold. *)

  val gemm : m:int -> n:int -> k:int -> a:V.t -> b:V.t -> c:V.t -> unit
  (** [C <- C + A B] with [A : m*k], [B : k*n], [C : m*n], ikj order. *)

  (** {2 Runtime variants}

      The parallel path: the work-stealing scheduler and
      tiled engine of {!Runtime}.  AXPY/GEMV/GEMM are bitwise equal to
      the sequential kernels above at any worker count and tile size;
      DOT uses the engine's fixed-shape reduction tree (deterministic
      across worker counts, though grouped differently from the
      sequential fold). *)

  val axpy_rt : Runtime.Sched.t -> alpha:N.t -> x:V.t -> y:V.t -> unit
  val dot_rt : Runtime.Sched.t -> x:V.t -> y:V.t -> N.t
  val gemv_rt : Runtime.Sched.t -> m:int -> n:int -> a:V.t -> x:V.t -> y:V.t -> unit

  val gemm_rt :
    Runtime.Sched.t ->
    ?tile:int * int ->
    m:int ->
    n:int ->
    k:int ->
    a:V.t ->
    b:V.t ->
    c:V.t ->
    unit ->
    unit
  (** [C <- C + A B], cache-blocked over [?tile] (default 64x64) with
      each tile a stealable task. *)

  val vec_of_floats : float array -> V.t
  val vec_to_floats : V.t -> float array
end
