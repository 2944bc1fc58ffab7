(** Flat word-addressed data memory. One word = one OCaml int; the memory
    hierarchy maps word address [a] to byte address [8*a]. *)

type t

exception Fault of int

val create : words:int -> t

(** [of_program p] allocates [p.mem_words] zeroed words and copies
    [p.data]'s segments into them, in list order. The segments' arrays
    are only read. *)
val of_program : Wish_isa.Program.t -> t

val size : t -> int

(** [read]/[write] raise {!Fault} with the offending address when out of
    range. *)
val read : t -> int -> int

val write : t -> int -> int -> unit

(** [checksum t] folds the whole memory into one value; used as the golden
    output when comparing binaries for architectural equivalence. *)
val checksum : t -> int
