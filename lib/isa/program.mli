(** A runnable program: a code image plus its initial data memory and
    metadata. This is the unit the emulator executes and the simulator
    models. *)

type t = {
  name : string;
  code : Code.t;
  entry : int;  (** starting pc *)
  data : (int * int) list;  (** initial (word address, value) pairs *)
  mem_words : int;  (** size of the data memory in words *)
}

val default_mem_words : int

(** [create ?name ?entry ?data ?mem_words code] validates entry and data
    addresses. *)
val create :
  ?name:string -> ?entry:int -> ?data:(int * int) list -> ?mem_words:int -> Code.t -> t

val code : t -> Code.t
val name : t -> string

(** [with_data t data] rebinds the initial data memory — the same binary
    run with a different input set. *)
val with_data : t -> (int * int) list -> t

val pp : Format.formatter -> t -> unit
