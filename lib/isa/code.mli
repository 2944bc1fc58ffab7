(** An assembled code image: instructions at consecutive PCs.

    PCs are instruction indices. For cache purposes every instruction
    occupies {!bytes_per_inst} bytes ([byte_pc]); with 64-byte I-cache
    lines this packs 16 instructions per line. *)

type t

val bytes_per_inst : int

(** Bytes per data word: the one shared scale between word-addressed
    emulator memory and the byte-addressed cache hierarchy. *)
val word_bytes : int

exception Invalid of string

(** [create insts] validates the image: all direct targets in range,
    every register index within the register files, and the last
    instruction must end control flow unconditionally ([halt], [ret], or
    an unguarded [jmp]). Raises {!Invalid} otherwise. Emulator fast
    paths rely on this validation to use unchecked register/predicate
    accesses on any [Code.t]. *)
val create : Inst.t array -> t

val length : t -> int

(** [get t pc] — raises {!Invalid} out of range. *)
val get : t -> int -> Inst.t

val in_range : t -> int -> bool
val byte_pc : int -> int
val iteri : t -> (int -> Inst.t -> unit) -> unit

(** [equal a b] — the same instructions at the same PCs. *)
val equal : t -> t -> bool

(** Static basic-block structure, shared by the pre-decoding emulator
    and block-level reports. [fuse_wish] models the emulator's
    predicate-through regime, where wish jumps/joins always fall through
    and so no longer end blocks (wish loops still do). *)

val ends_block : ?fuse_wish:bool -> Inst.t -> bool

(** [block_leaders ?fuse_wish t] — per-pc flags: entry 0, direct branch
    targets (wish join points included), and fall-throughs after every
    block-ending instruction. *)
val block_leaders : ?fuse_wish:bool -> t -> bool array

val block_count : ?fuse_wish:bool -> t -> int

(** [count t p] — static instruction census. *)
val count : t -> (Inst.t -> bool) -> int

val static_conditional_branches : t -> int
val static_wish_branches : t -> int
val static_wish_loops : t -> int

(** Instructions with a guard other than [p0] that are not branches:
    the ones the predication mechanism, NO-DEPEND and NO-FETCH act on. *)
val static_guarded_non_branches : t -> int

val pp : Format.formatter -> t -> unit
