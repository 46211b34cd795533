(* Regenerates one generated kernel file on stdout: `batch` for
   lib/multifloat/batch.ml (planar kernels), `c` for
   lib/multifloat/batch_stubs.c (their C loops), `scalar` for
   lib/multifloat/fpan_scalar.ml (scalar Mf2/Mf3/Mf4 cores).  Wired
   into lib/multifloat/dune as drift rules: `dune runtest` diffs each
   committed file against this output, `dune promote` accepts it. *)
let () =
  match Sys.argv with
  | [| _; "batch" |] -> print_string (Fpan_ir.Codegen.batch_ml ())
  | [| _; "c" |] -> print_string (Fpan_ir.Codegen.batch_c ())
  | [| _; "scalar" |] -> print_string (Fpan_ir.Codegen.scalar_ml ())
  | _ ->
      prerr_endline "usage: gen_batch (batch | c | scalar)";
      exit 2
