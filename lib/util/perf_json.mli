(** Minimal JSON for the bench harnesses' machine-readable perf records.
    The parser accepts exactly the subset the emitter produces (plus
    whitespace); its in-tree reader is [bench/perf], which reads back
    its ledger records and [expected.json] pins. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [write_file path v] — write [v] followed by a newline. Best-effort:
    IO errors are swallowed (a perf record must never fail its run). *)
val write_file : string -> t -> unit

(** Peak-RSS field: [Null] when the probe reported absent. *)
val of_rss : int option -> t

(** [parse s] — parse the emitted JSON subset back into a value. Total:
    any malformed input (truncation, bad escapes, trailing garbage,
    hostile nesting) yields [Error] with an offset-bearing message,
    never an exception. *)
val parse : string -> (t, string) result

(** [read_file path] — [parse] the whole file; [Error] on IO failure. *)
val read_file : string -> (t, string) result

(** [member k v] — field [k] of object [v]; [None] on non-objects. *)
val member : string -> t -> t option

(** Numeric coercion: [Int] and [Float] both yield a float. *)
val to_float_opt : t -> float option
