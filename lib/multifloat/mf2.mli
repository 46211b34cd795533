(** Two-term floating-point expansions: ~107-bit (quadruple) precision.

    Branch-free arithmetic built from the paper's provably optimal
    2-term FPANs (Figures 2 and 5): addition costs 6 gates (20 flops) at
    depth 4, multiplication 1 TwoProd + 2 products + 3 gates (9 flops)
    at depth 3.  The add/sub/mul kernels are generated from the same
    wire programs as the planar {!Batch} kernels; the test suite checks
    them bitwise against the IR and [Fpan] network interpreters. *)

include Ops.S

val mul_no_fma : t -> t -> t
(** The same multiplication FPAN with TwoProd realized by
    Veltkamp-Dekker splitting (17 flops instead of 2): the kernel for
    hardware without a fused multiply-add, and the subject of the
    no-FMA benchmark ablation. *)
