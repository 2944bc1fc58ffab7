(** GC and memory telemetry for the simulation drivers.

    Simulation runs are allocation-sensitive: the timing core recycles
    µops precisely so the minor heap stays quiet, and the streaming trace
    bounds the major heap. This module makes both claims measurable —
    words allocated, peak heap, and the process resident high-water
    mark. *)

let summary_line () =
  let s = Gc.quick_stat () in
  let mwords w = w /. 1e6 in
  Printf.sprintf
    "minor %.1fM words (%d collections), major %.1fM words (%d collections), promoted %.1fM, top heap %.1fM words"
    (mwords s.Gc.minor_words) s.Gc.minor_collections (mwords s.Gc.major_words)
    s.Gc.major_collections (mwords s.Gc.promoted_words)
    (mwords (float_of_int s.Gc.top_heap_words))

(** [peak_rss_kb ()] — the process resident-set high-water mark (VmHWM)
    in KiB, or [-1] where it cannot be determined: /proc absent
    (non-Linux), no VmHWM line, or a line that does not parse. Never
    raises. Unlike the peak OCaml heap this includes off-heap
    allocations and the runtime itself. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> -1
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          (* A malformed VmHWM line means the probe is absent, not an
             error worth raising for. *)
          Option.value ~default:(-1)
            (Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d" Fun.id)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        try scan () with _ -> -1)
