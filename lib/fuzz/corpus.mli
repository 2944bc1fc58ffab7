(** The counterexample corpus: shrunk repros saved as replayable [.wisc]
    files.

    A repro file is a plain WISC assembly listing (the shrunk case's
    normal binary, [.mem]/[.data] directives included) prefixed by [;]
    comment headers recording provenance: root seed, case seed, the
    failing oracle, the shrink trace length and the failure reason; and
    [source-words], what the source evaluator left in the data region
    and the live-out slots (their count, then [addr:value] for each
    non-zero word). The listing and that header are enough to replay the
    program-level oracles — no generator, AST, or seed required — so
    repros stay meaningful even after the generator evolves.
    [test/fuzz_corpus/] is replayed by [dune runtest] forever after. *)

type repro = {
  file : string;  (** base name, e.g. ["source-00000c0ffee.wisc"] *)
  oracle : string;  (** {!Oracle.name_id} of the oracle that failed *)
  seed : int;  (** per-case seed (header [; case-seed=]) *)
  reason : string;
  source_words : int array option;
      (** header [; source-words=]; [None] when the source evaluator
          raised on the case *)
  program : Wish_isa.Program.t;
}

(** [save ~dir ~oracle ~reason ~steps case] — write the repro file for a
    shrunk failing [case] (named [<oracle>-<seed hex>.wisc], overwriting
    any previous repro of the same identity) and return its path. The
    directory is created if missing. *)
val save :
  dir:string -> oracle:Oracle.name -> reason:string -> steps:int -> Gen.case -> string

(** [load path] — parse one repro file (headers + listing). *)
val load : string -> repro

(** [replay repro] — run the program-level oracles on the repro's
    program: {!Oracle.source_program} against its source words (a skip
    when it has none) and the timing-core accounting; the saved oracle id
    is advisory, both always run. *)
val replay : repro -> (string * Oracle.verdict) list

(** [replay_dir dir] — load and replay every [*.wisc] under [dir]
    (sorted), returning per-file verdicts; [Ok] when the directory is
    missing or empty (an empty corpus is healthy). *)
val replay_dir : string -> (string * (string * Oracle.verdict) list) list
