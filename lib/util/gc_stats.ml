(** GC and memory telemetry for the simulation harnesses.

    Simulation runs are allocation-sensitive: the timing core recycles
    µops precisely so the minor heap stays quiet, and the streaming trace
    bounds the major heap. This module makes both claims measurable —
    words allocated, peak heap, and the process resident high-water
    mark. *)

type snapshot = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int; (* process-lifetime peak OCaml heap, in words *)
}

let snapshot () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    top_heap_words = s.Gc.top_heap_words;
  }

(** [diff a b] — counters of the interval from [a] to [b] ([top_heap_words]
    is [b]'s, being a high-water mark rather than a counter). *)
let diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    top_heap_words = b.top_heap_words;
  }

let mwords w = w /. 1e6

let line s =
  Printf.sprintf
    "minor %.1fM words (%d collections), major %.1fM words (%d collections), promoted %.1fM, top heap %.1fM words"
    (mwords s.minor_words) s.minor_collections (mwords s.major_words)
    s.major_collections (mwords s.promoted_words)
    (mwords (float_of_int s.top_heap_words))

let summary_line () = line (snapshot ())

(** [peak_rss_kb_opt ()] — the process resident-set high-water mark
    (VmHWM) in KiB, or [None] where it cannot be determined: /proc absent
    (non-Linux), no VmHWM line, or a line that does not parse. Never
    raises. Unlike [top_heap_words] this includes off-heap allocations
    and the runtime itself. *)
let peak_rss_kb_opt () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          (* A malformed VmHWM line means the probe is absent, not an
             error worth raising for. *)
          Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        try scan () with _ -> None)

(** [peak_rss_kb ()] — like {!peak_rss_kb_opt} but returns [-1] when the
    probe is unavailable (legacy shape for printf call sites). *)
let peak_rss_kb () = Option.value (peak_rss_kb_opt ()) ~default:(-1)
