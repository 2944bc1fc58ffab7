(** Minimal JSON for [bench/perf]'s machine-readable records: the value
    type and a parser. [bench/perf] writes its ledger records and
    [expected.json] pins with its own full-precision writer and reads
    them back here, so the parser accepts exactly the subset that writer
    produces (plus whitespace) rather than pulling in a full JSON
    library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] — parse the record subset into a value. Total:
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
