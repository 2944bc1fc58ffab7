(** Benchmark container: a Kernel program plus its input sets.

    Each workload mimics the qualitative branch behaviour of one benchmark
    from the paper's SPEC INT 2000 subset (Table 4) — see each [W_*]
    module's header for the mapping rationale. Every workload ships three
    inputs (A, B, C, echoing Figure 1) whose data distributions change
    branch predictability and loop trip counts, and designates the input
    the compiler profiles on (the paper's compile-time training input). *)

(** One input set: its initial data memory as flat segments (see
    {!Wish_isa.Program.t}), built once with the workload. Every program
    bound to the input shares the segments' arrays; nothing writes them. *)
type input = { label : string; data : Wish_isa.Program.segment list }

type t = {
  name : string;
  description : string;
  ast : Wish_compiler.Ast.program;
  inputs : input list;  (** conventionally A, B, C *)
  profile_input : string;  (** label of the training input *)
  mem_words : int;
  approx_dyn_insts : int;
      (** rough dynamic instruction count at this scale — a trace
          pre-sizing hint, exactness does not matter *)
}

(** [input t label] — raises [Invalid_argument] for unknown labels. *)
val input : t -> string -> input

val profile_data : t -> Wish_isa.Program.segment list

(** [program_for t binary input_label] binds an input set to a compiled
    binary of this workload. The program shares the input's segments. *)
val program_for : t -> Wish_isa.Program.t -> string -> Wish_isa.Program.t

(** [array_at base values] is the segment that initializes the words
    from [base] on with [values] (not copied). *)
val array_at : int -> int array -> Wish_isa.Program.segment

(** [gen ~seed n f] builds [n] values [f rng k], [k] in index order, from
    a fresh deterministic RNG. *)
val gen : seed:int -> int -> (Wish_util.Rng.t -> int -> int) -> int array
