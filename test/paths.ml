(* Files of the source tree the suites read, found from the test
   executable rather than the working directory. Dune copies them into
   the build tree beside the executable ([_build/default/examples/...]
   next to [_build/default/test/test_main.exe]), so a suite reads the
   same files whether it runs under [dune runtest] or by hand from the
   repository root. *)

let root = Filename.dirname (Filename.dirname Sys.executable_name)

(** The shipped [.tw] kernels. *)
let examples_dir = Filename.concat root "examples/kernels"

(** A CLI golden of [bin/fixtures]. *)
let fixture name = Filename.concat root (Filename.concat "bin/fixtures" name)
