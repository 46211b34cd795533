(** Dense extended-precision linear algebra.

    The paper's motivation is exactly this workload: solving linear
    systems whose condition numbers (1e10-1e20) exhaust double
    precision.  This package provides LU and Cholesky factorizations,
    triangular solves, norms, and determinants over any MultiFloat
    precision, plus the classic {e mixed-precision iterative
    refinement} scheme (factor once in fast double precision, correct
    the solution with extended-precision residuals) in {!Refine}.

    Matrices are dense, row-major [t array] of size [n * n]. *)

exception Singular of int
(** Raised (with the offending pivot column) when a factorization
    encounters an exactly-zero pivot. *)

module Make (M : Multifloat.Ops.S) : sig
  type vec = M.t array
  type mat = M.t array

  val mat_of_floats : float array -> mat
  val vec_of_floats : float array -> vec
  val vec_to_floats : vec -> float array

  val mat_mul : n:int -> mat -> mat -> mat
  val mat_vec : n:int -> mat -> vec -> vec
  val residual : n:int -> a:mat -> x:vec -> b:vec -> vec
  (** [b - A x]. *)

  val norm_inf : vec -> M.t
  val norm2 : vec -> M.t
  val frobenius : mat -> M.t

  type lu = {
    factors : mat;  (** combined unit-L and U factors *)
    pivots : int array;  (** row permutation *)
    det_sign : int;
  }

  val lu_factor : n:int -> mat -> lu
  (** Partial-pivoting LU; raises {!Singular} on a zero pivot. *)

  val lu_solve : n:int -> lu -> vec -> vec
  val solve : n:int -> mat -> vec -> vec
  val det : n:int -> mat -> M.t

  val cholesky : n:int -> mat -> mat
  (** Lower-triangular Cholesky factor of a symmetric positive-definite
      matrix; raises {!Singular} when a diagonal entry is not
      positive. *)

  val cholesky_solve : n:int -> mat -> vec -> vec

  val inverse : n:int -> mat -> mat
end

(** Mixed-precision iterative refinement: LU in hardware doubles,
    residual and correction in MultiFloat precision [M].  Converges to
    ~[M.precision_bits] accuracy whenever double-precision LU is stable
    enough to contract (condition below ~1e15). *)
module Refine (M : Multifloat.Ops.S) : sig
  type stats = {
    iterations : int;
    final_residual_norm : float;
    converged : bool;
  }

  val solve :
    n:int -> a:float array -> b:M.t array -> ?max_iter:int -> unit -> M.t array * stats
  (** Solve [A x = b]: factor [a] once in double precision, then refine
      [x <- x + A^-1 (b - A x)] with the residual evaluated in [M]
      until the residual stops shrinking (typically
      [precision_bits / 50] iterations).  Returns the iterate with the
      smallest residual: [final_residual_norm] is the infinity norm of
      [b - A x] for the returned [x], not for a rejected correction. *)
end

(** {!Refine} over a planar (structure-of-arrays) layout: the
    extended-precision matrix and solution are stored as
    {!Multifloat.Batch.V} vectors and the residual — the hot loop of
    refinement — is computed by the generated [dot_rows] kernel, which
    folds several rows side by side in vector lanes, each row in its
    own index order.  Arithmetic and accumulation orders match {!Refine}
    exactly, so solutions and stats are bitwise identical; only the
    memory layout changes. *)
module Refine_batched
    (M : Multifloat.Ops.S)
    (_ : Multifloat.Batch.V with type elt = M.t) : sig
  type stats = {
    iterations : int;
    final_residual_norm : float;
    converged : bool;
  }

  val solve :
    ?rt:Runtime.Sched.t ->
    n:int ->
    a:float array ->
    b:M.t array ->
    ?max_iter:int ->
    unit ->
    M.t array * stats
  (** With [?rt], the residual matrix-vector product runs row-parallel
      on the work-stealing runtime; solutions and stats remain bitwise
      identical to the sequential path at any worker count. *)
end
