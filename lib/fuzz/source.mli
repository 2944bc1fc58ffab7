(** A reference evaluator for Kernel programs, straight from the source.

    It walks {!Wish_compiler.Ast} directly and shares no code with the
    compiler or the emulator, so a bug in expression lowering, in a loop
    shape or in the emulator's closures that every binary kind shares
    shows up as a difference from it (the [source] oracle). Semantics:
    global variables start at 0; memory is [mem_words] words, zeroed, then
    the input segments in list order; [+ - *] wrap as 63-bit ints;
    [Shl]/[Shr] shift left and arithmetically right by [b land 63]; a
    compare is 1 or 0 and a condition holds when it is non-zero; [For (v,
    lo, hi, body)] is [v = lo; while v < hi { body; v = v + 1 }], the
    limit re-evaluated on every test; a call runs the callee's body on the
    same globals. *)

(** More than [fuel] loop iterations and calls. Every iteration and call
    retires at least one instruction in any binary, so a program whose
    binary halts within [fuel] instructions never raises it. *)
exception Out_of_fuel

(** [run ~fuel ~mem_words ~data program] — the final data memory. A load
    or store outside [0, mem_words) raises [Invalid_argument]. *)
val run :
  fuel:int -> mem_words:int -> data:Wish_isa.Program.segment list -> Wish_compiler.Ast.program ->
  int array
