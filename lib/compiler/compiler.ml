(** Compiler driver: produce the five binaries of Table 3 for a Kernel
    program, using an emulator profile of the normal binary (run on a
    designated profiling input) to drive the BASE-DEF cost model — the
    moral equivalent of the paper's ORC profile-guided if-conversion. *)

open Wish_isa

type binaries = {
  source_name : string;
  normal : Program.t;
  base_def : Program.t;
  base_max : Program.t;
  wish_jj : Program.t;
  wish_jjl : Program.t;
}

let binary binaries (kind : Policy.kind) =
  match kind with
  | Policy.Normal -> binaries.normal
  | Policy.Base_def -> binaries.base_def
  | Policy.Base_max -> binaries.base_max
  | Policy.Wish_jj -> binaries.wish_jj
  | Policy.Wish_jjl -> binaries.wish_jjl

let all_kinds = [ Policy.Normal; Policy.Base_def; Policy.Base_max; Policy.Wish_jj; Policy.Wish_jjl ]

(** [compile_kind ?profile ?wish_threshold_n ~name ast kind] compiles one
    flavour. *)
let compile_kind ?mem_words ?profile ?wish_threshold_n ~name ast kind =
  let policy = Policy.create ?profile ?wish_threshold_n kind in
  let program, branch_map =
    Codegen.compile ?mem_words ~policy ~name:(name ^ "." ^ Policy.kind_name kind) ast
  in
  (program, branch_map)

(** [profile_of_run program branch_map] runs the emulator and folds the
    per-PC branch counts back onto AST construct ids. *)
let profile_of_run ?fuel (program : Program.t) (branch_map : Codegen.branch_map) :
    Policy.profile =
  let prof, _st = Wish_emu.Profile.of_program ?fuel program in
  let table : Policy.profile = Hashtbl.create 64 in
  List.iter
    (fun (pc, id, taken_means_true) ->
      match Hashtbl.find_opt prof.Wish_emu.Profile.branches pc with
      | None -> ()
      | Some c ->
        let executed = c.Wish_emu.Profile.executed in
        let cond_true = if taken_means_true then c.taken else executed - c.taken in
        let prev =
          Option.value
            (Hashtbl.find_opt table id)
            ~default:{ Policy.executed = 0; cond_true = 0 }
        in
        Hashtbl.replace table id
          {
            Policy.executed = prev.Policy.executed + executed;
            cond_true = prev.Policy.cond_true + cond_true;
          })
    branch_map;
  table

(** [compile_all ~name ~profile_data ast] builds all five binaries.
    [profile_data] is the input set used for the profiling run (the paper's
    compile-time profile); the resulting binaries can then be run on any
    input via {!Program.with_data}. *)
let compile_all ?mem_words ?fuel ~name ~profile_data ast =
  let normal, branch_map = compile_kind ?mem_words ~name ast Policy.Normal in
  let profile = profile_of_run ?fuel (Program.with_data normal profile_data) branch_map in
  let c kind = fst (compile_kind ?mem_words ~profile ~name ast kind) in
  {
    source_name = name;
    normal;
    base_def = c Policy.Base_def;
    base_max = c Policy.Base_max;
    wish_jj = c Policy.Wish_jj;
    wish_jjl = c Policy.Wish_jjl;
  }
