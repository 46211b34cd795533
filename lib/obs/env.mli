(** The environment block a benchmark artifact carries: the machine,
    the toolchain and the source its numbers come from. *)

val json : isa:string -> cc:string -> Json_out.t
(** [{nproc; cpu; ocaml; flambda; cc; isa; git_rev}]: the recommended
    domain count, the CPU model from [/proc/cpuinfo], the OCaml version,
    whether the compiler has flambda, the C compiler that built the
    planar C kernels and the SIMD clone they run ([cc] and [isa], from
    [Multifloat.Batch.cc] and [Multifloat.Batch.isa]) and the HEAD commit
    read from [.git] in the working directory, suffixed ["-dirty"] when
    [git diff] finds tracked files changed against it ("unknown" where
    any of them cannot be read). *)
