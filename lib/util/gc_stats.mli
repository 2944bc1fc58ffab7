(** GC and memory telemetry for the simulation harnesses: words
    allocated, collection counts, peak heap and process peak RSS. *)

type snapshot = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;  (** process-lifetime peak OCaml heap, in words *)
}

val snapshot : unit -> snapshot

(** [diff a b] — counters of the interval from [a] to [b]
    ([top_heap_words] is [b]'s, being a high-water mark). *)
val diff : snapshot -> snapshot -> snapshot

(** Human-readable one-liner for a snapshot (or an interval from {!diff}). *)
val line : snapshot -> string

(** [line] of the counters since process start. *)
val summary_line : unit -> string

(** Process resident-set high-water mark (VmHWM) in KiB, or [None] where
    it cannot be determined (/proc absent, no VmHWM line, malformed
    line). Never raises. Includes off-heap memory, unlike
    [top_heap_words]. *)
val peak_rss_kb_opt : unit -> int option

(** Like {!peak_rss_kb_opt} but [-1] when unavailable. *)
val peak_rss_kb : unit -> int
