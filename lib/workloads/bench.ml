(** Benchmark container: a Kernel program plus its input sets.

    Each workload mimics the qualitative branch behaviour of one benchmark
    from the paper's SPEC INT 2000 subset (Table 4) — see each module's
    header for the mapping rationale. Every workload ships three inputs
    (A, B, C, echoing Figure 1) whose data distributions change branch
    predictability and loop trip counts, and designates the input the
    compiler profiles with (the paper's compile-time training input). *)

type input = { label : string; data : Wish_isa.Program.segment list }

type t = {
  name : string;
  description : string;
  ast : Wish_compiler.Ast.program;
  inputs : input list; (* conventionally A, B, C *)
  profile_input : string; (* label of the training input *)
  mem_words : int;
  approx_dyn_insts : int;
      (* rough dynamic instruction count at this scale: a size hint that
         pre-sizes trace storage (exactness does not matter) *)
}

let input t label =
  match List.find_opt (fun i -> String.equal i.label label) t.inputs with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "workload %s has no input %s" t.name label)

let profile_data t = (input t t.profile_input).data

(** [program_for t binary input_label] — bind an input set to a compiled
    binary of this workload. *)
let program_for t (binary : Wish_isa.Program.t) label =
  Wish_isa.Program.with_data binary (input t label).data

(** Shared helper: an array initialization as one data segment. *)
let array_at base values = { Wish_isa.Program.base; words = values }

(* [Array.init] calls [f] in index order, so the draws are in order. *)
let gen ~seed n f =
  let rng = Wish_util.Rng.create seed in
  Array.init n (fun k -> f rng k)
