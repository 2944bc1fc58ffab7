(* Chaos smoke: regenerate Figure 10 (gzip-only grid, two worker
   domains, cold persistent cache) with a hostile fault schedule armed —
   a worker domain dying mid-task, a compile and a trace crash, three
   simulation crashes, and a torn cache write — then regenerate it again
   fault-free from the survivors' cache, and fail unless both tables
   come out byte-identical. This is the end-to-end version of the
   @chaos alcotest suite: one run through the real driver stack proving
   the supervision layer converges to exactly the clean answer. Wired
   into [dune runtest] via the @chaos-smoke alias. *)

module FP = Wish_util.Faultpoint
module Table = Wish_util.Table
module Lab = Wish_experiments.Lab
module Cache = Wish_experiments.Cache
module Figures = Wish_experiments.Figures

let cache_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "wishchaos_smoke_%d" (Unix.getpid ()))

let rec rm_rf d =
  if Sys.file_exists d then
    if Sys.is_directory d then begin
      Array.iter (fun f -> rm_rf (Filename.concat d f)) (Sys.readdir d);
      try Sys.rmdir d with Sys_error _ -> ()
    end
    else try Sys.remove d with Sys_error _ -> ()

let fig10_run faults =
  Fun.protect ~finally:FP.reset @@ fun () ->
  let lab = Lab.create ~names:[ "gzip" ] ~jobs:2 ~cache:(Cache.create ~dir:cache_dir ()) () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  List.iter (fun (site, times) -> FP.arm site ~times) faults;
  let csv = Table.to_csv (List.assoc "fig10" Figures.all lab) in
  List.iter
    (fun (site, _) ->
      if FP.injected site = 0 then (
        Printf.eprintf "FAIL: armed faultpoint %s never injected\n" site;
        exit 1))
    faults;
  (csv, Lab.batch_stats lab)

let () =
  rm_rf cache_dir;
  Fun.protect ~finally:(fun () -> rm_rf cache_dir) @@ fun () ->
  let chaotic, st =
    fig10_run
      [
        ("pool.worker", 1);
        ("lab.compile", 1);
        ("lab.trace", 1);
        ("lab.simulate", 3);
        ("cache.write.torn", 1);
      ]
  in
  Printf.printf
    "chaos run: %d task(s) executed, %d retried, %d failed (must be 0), 7 faults injected\n%!"
    st.executed st.retried st.failed;
  if st.failed > 0 then (
    Printf.eprintf "FAIL: a job exhausted its retry budget under the smoke schedule\n";
    exit 1);
  if st.retried < 5 then (
    Printf.eprintf "FAIL: expected at least 5 retries, saw %d\n" st.retried;
    exit 1);
  (* Second run: no faults, warm cache from the chaotic run. The torn
     entry must quarantine-and-recompute transparently; the rest must
     hit. *)
  let clean, st2 = fig10_run [] in
  Printf.printf "clean rerun: %d task(s) executed, %d cache hit(s)\n%!" st2.executed
    st2.cache_hits;
  if st2.cache_hits = 0 then (
    Printf.eprintf "FAIL: nothing served from the chaotic run's cache\n";
    exit 1);
  if st2.executed >= st.executed then (
    Printf.eprintf "FAIL: the clean rerun executed %d task(s), the chaotic run %d\n" st2.executed
      st.executed;
    exit 1);
  if String.equal chaotic clean then print_endline "chaos smoke OK: fig10 byte-identical"
  else (
    Printf.eprintf "FAIL: fig10 differs between chaotic and clean runs\n%s\n--- vs ---\n%s\n"
      chaotic clean;
    exit 1)
