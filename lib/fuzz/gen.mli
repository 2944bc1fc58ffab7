(** Seeded, fully deterministic random Kernel-program generator.

    Every case is a pure function of its seed: the Kernel AST, both input
    sets and the memory geometry are drawn from one {!Wish_util.Rng}
    stream and nothing else, so a failing seed replays bit-for-bit on any
    machine. The generator is structured rather than grammar-blind — it
    emits the control-flow shapes the compiler's five lowerings actually
    specialize on:

    - {e diamonds and triangles} ([If] with straight-line arms sized to
      straddle the paper's wish-jump threshold N=5), so if-conversion,
      wish jump/join conversion and the BASE-DEF cost model all trigger;
    - {e counted loops} ([For]/[While]/[Do_while] with constant trip
      counts and bodies that never assign the counter), so wish-loop
      conversion triggers and every generated program terminates by
      construction;
    - {e input-dependent conditions} over a bounded data region, so the
      profile input (which trains the compiler) and the evaluation input
      (which the oracles run) genuinely disagree;
    - {e branch-dense fetch groups}: runs of empty [If]s whose
      conditions always hold, more conditional branches than one fetch
      group may carry;
    - {e masked addresses}: every [Load]/[Store] address has the shape
      [(e land mask) + base] with [mask + base] inside the data region,
      so memory accesses cannot fault and footprints stay bounded.

    The epilogue stores every program variable to a dedicated out-region
    slot, turning live-out register state into memory, where the source
    oracle compares it with the evaluator's variables. *)

type case = {
  c_seed : int;  (** the per-case seed this case is a pure function of *)
  c_name : string;
  c_ast : Wish_compiler.Ast.program;
  c_profile_data : (int * int) list;
      (** training input (compile-time profile), as [(address, value)]
          pairs so the shrinker can drop one at a time; programs bind it
          through {!Wish_isa.Program.segments_of_pairs} *)
  c_eval_data : (int * int) list;  (** evaluation input the oracles run, likewise *)
  c_mem_words : int;
  c_outs : int;  (** live-out slots the epilogue stores at [out_base..] *)
}

(** First word of the out region ([2048]); generated addresses stay below
    it, the codegen spill area sits above it. *)
val out_base : int

(** [case_seed ~root i] — the per-case seed of case [i] under root seed
    [root]; an avalanche mix, so nearby indices share no structure. *)
val case_seed : root:int -> int -> int

(** [generate seed] — the case, deterministically. *)
val generate : int -> case

(** Canonical textual form of the whole case (AST + both inputs), the
    byte-identity witness for determinism tests and repro headers. *)
val to_string : case -> string
