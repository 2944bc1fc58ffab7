(** The fuzzing loop: generate → check oracles → shrink → save repro.

    Seeds are derived per index ({!Gen.case_seed}), so a run is a pure
    function of [(root, count, oracles)]. *)

type failure = {
  f_index : int;  (** case index within the run *)
  f_seed : int;  (** per-case seed — [Gen.generate f_seed] replays it *)
  f_oracle : Oracle.name;
  f_reason : string;  (** failure reason on the {e shrunk} case *)
  f_shrunk : Gen.case;
  f_trace : string list;  (** shrink steps, in application order *)
  f_steps : int;
  f_tried : int;  (** oracle evaluations the shrink spent *)
  f_size_before : int;  (** {!Shrink.size} of the generated case *)
  f_size_after : int;
  f_repro : string option;  (** corpus file path, when [corpus_dir] was given *)
}

type report = {
  r_root : int;
  r_count : int;  (** cases actually checked (may stop at [max_failures]) *)
  r_failures : failure list;  (** in index order *)
  r_skips : (string * int) list;  (** oracle id → skipped case-oracle pairs *)
}

val report_ok : report -> bool

(** One human line: ["1000 cases, 0 failures (skips: sim 3)"]. *)
val summary_line : report -> string

(** [run ~root ~count ()] — check cases [0..count-1]. Failures are
    shrunk with [shrink_tries] oracle evaluations each (default 2000)
    and, when [corpus_dir] is given, saved as [.wisc] repros. Stops
    early after [max_failures] (default 10). [progress] is called with
    the number of cases completed. *)
val run :
  ?oracles:Oracle.name list ->
  ?corpus_dir:string ->
  ?cache_dir:string ->
  ?shrink_tries:int ->
  ?max_failures:int ->
  ?progress:(int -> unit) ->
  root:int ->
  count:int ->
  unit ->
  report
