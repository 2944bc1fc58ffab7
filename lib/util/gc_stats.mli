(** GC and memory telemetry for the simulation drivers: words allocated,
    collection counts, peak heap and process peak RSS. *)

(** One line of the GC counters since process start: minor and major
    words with their collection counts, promoted words, and the peak
    OCaml heap. *)
val summary_line : unit -> string

(** Process resident-set high-water mark (VmHWM) in KiB, or [-1] where
    it cannot be determined (/proc absent, no VmHWM line, malformed
    line). Never raises. Includes off-heap memory, unlike the peak OCaml
    heap. *)
val peak_rss_kb : unit -> int
