(** A runnable program: a code image plus its initial data memory and
    metadata. This is the unit the emulator executes and the simulator
    models. *)

(** One initialized stretch of data memory: [words.(k)] is the initial
    value of word address [base + k]. *)
type segment = { base : int; words : int array }

type t = {
  name : string;
  code : Code.t;
  entry : int;  (** starting pc *)
  data : segment list;
      (** initial data memory: the segments apply in list order, so where
          two overlap the later one wins. Every other word starts at 0.
          The [words] arrays are shared, not copied: every program bound
          to the same input holds the same arrays, and
          [Wish_emu.Memory.of_program] copies them into a fresh memory.
          Nothing writes them. *)
  mem_words : int;  (** size of the data memory in words *)
}

val default_mem_words : int

(** [create ?name ?entry ?data ?mem_words code] validates the entry and
    checks once per segment that it lies wholly inside [mem_words]. *)
val create : ?name:string -> ?entry:int -> ?data:segment list -> ?mem_words:int -> Code.t -> t

val code : t -> Code.t
val name : t -> string

(** [with_data t data] rebinds the initial data memory — the same binary
    run with a different input set. Checks the segments' ranges as
    {!create} does. *)
val with_data : t -> segment list -> t

(** [segments_of_pairs pairs] — the [(word address, value)] form of
    [.data] directives and fuzz cases, as segments: each run of
    consecutive addresses becomes one segment, and the segments keep the
    pairs' order, so they initialize memory as the pairs would applied
    one by one. *)
val segments_of_pairs : (int * int) list -> segment list

val pp : Format.formatter -> t -> unit
