(** Cache-blocked dense kernels (DOT, AXPY, GEMV, GEMM) over
    planar vectors, decomposed into stealable tasks on {!Sched}.

    The GEMM tiles C over i/j only (never over k); each tile runs the
    ikj rank-1 [madd] update restricted to its j-range, folding p in
    index order — the sequential batched kernel's exact accumulation
    order — so tiled results are bitwise identical to the sequential
    path at any tile size and worker count.  DOT uses the
    scheduler's fixed-shape reduction tree (deterministic, but grouped
    differently from a plain sequential fold). *)

module type ELT = sig
  type t

  val zero : t
  val add : t -> t -> t
end

(** The planar-vector subset the engine needs — a structural subset of
    both {!Blas.Numeric.VEC} and {!Multifloat.Batch.V}, so any batched
    arithmetic plugs in directly. *)
module type VEC = sig
  type elt
  type t

  val lanes : int
  val length : t -> int
  val get : t -> int -> elt
  val axpy : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  val madd : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  val dot : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt

  val dot_rows :
    a:t -> aoff:int -> ld:int -> x:t -> xoff:int -> len:int -> dst:t -> lo:int -> hi:int -> unit
end

type cfg = {
  tile_m : int;  (** C tile height (rows of A per task) *)
  tile_n : int;  (** C tile width (packed B^T rows per task) *)
  grain : int;  (** multiply-accumulates per leaf for the 1-D kernels *)
}

val default_cfg : cfg
(** [{tile_m = 64; tile_n = 64; grain = 1024}] — tiles sized so the
    [k x tile_n] B panel plus the C tile of 2–4-term planar components
    stay cache-resident, and each [madd] row update is long enough to
    amortize its call into the C kernels (see DESIGN.md §7 and the
    EXPERIMENTS.md tile sweep).  Changing the tile size or grain never changes GEMM/GEMV
    results (only the DOT reduction-tree shape depends on
    [grain]). *)

module Make (E : ELT) (V : VEC with type elt = E.t) : sig
  val dot : Sched.t -> ?cfg:cfg -> V.t -> V.t -> E.t
  (** Tree-reduced dot product (deterministic for fixed length/grain). *)

  val axpy : Sched.t -> ?cfg:cfg -> alpha:E.t -> x:V.t -> y:V.t -> unit -> unit
  (** [y <- alpha x + y], range-partitioned (elementwise, so bitwise
      equal to the sequential kernel). *)

  val gemv : Sched.t -> ?cfg:cfg -> m:int -> n:int -> a:V.t -> x:V.t -> y:V.t -> unit -> unit
  (** [y <- A x], partitioned into whole groups of [V.lanes] rows, each
      leaf one {!VEC.dot_rows} call; every row is bitwise its
      sequential planar dot at any worker count. *)

  val gemm :
    Sched.t -> ?cfg:cfg -> m:int -> n:int -> k:int -> a:V.t -> b:V.t -> c:V.t -> unit -> unit
  (** [C <- C + A B] ([A] m×k, [B] k×n, [C] m×n row-major), tiled;
      bitwise equal to the sequential batched kernel. *)
end
