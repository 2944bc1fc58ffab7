(** experiments — regenerate the paper's tables and figures.

    Examples:
      experiments                    # everything
      experiments fig10 fig12        # selected artifacts
      experiments --scale 2 -v       # bigger runs, with progress logging
      experiments --retries 3 --keep-going
      experiments cache verify       # integrity-check _wishcache/
      experiments cache prune        # evict stale entries, quarantine corrupt ones
      experiments cache stats        # occupancy: entries, bytes, versions, quarantine *)

open Cmdliner
module Lab = Wish_experiments.Lab
module Figures = Wish_experiments.Figures
module Ablations = Wish_experiments.Ablations
module Cache = Wish_experiments.Cache

let run names scale verbose benchmarks csv_dir jobs no_cache retries keep_going sample =
  Wish_util.Faultpoint.arm_from_env ();
  let jobs =
    match Wish_util.Pool.jobs_of_string jobs with
    | Ok n -> n
    | Error e ->
      Fmt.epr "--jobs %s: %s@." jobs e;
      exit 2
  in
  if retries < 0 then begin
    Fmt.epr "--retries %d: must be at least 0@." retries;
    exit 2
  end;
  let sampling =
    match sample with
    | None -> None
    | Some "auto" -> Some Lab.Sample_auto
    | Some str -> (
      match Wish_sim.Sampler.of_string str with
      | Ok s -> Some (Lab.Sample_spec s)
      | Error e ->
        Fmt.epr "--sample %s: %s@." str e;
        exit 2)
  in
  (* Resolve the artifact selection before spawning any worker domain, so
     a typo cannot leak a pool. Named lookup also covers the on-demand
     extras (scale-sweep); the no-argument run sticks to the default
     catalog. *)
  let catalog = Figures.all @ Figures.extras @ Ablations.all in
  let selected =
    if names = [] then Figures.all @ Ablations.all
    else
      List.map
        (fun n ->
          match List.assoc_opt n catalog with
          | Some f -> (n, f)
          | None ->
            Fmt.epr "unknown artifact %s (know: %s)@." n
              (String.concat ", " (List.map fst catalog));
            exit 2)
        names
  in
  (* --csv's directory exists before any work, so a path that cannot be
     one fails as a usage error rather than after the first artifact. *)
  Option.iter
    (fun dir ->
      match if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with
      | () when Sys.is_directory dir -> ()
      | () ->
        Fmt.epr "--csv %s: not a directory@." dir;
        exit 2
      | exception Sys_error e ->
        Fmt.epr "--csv %s@." e;
        exit 2)
    csv_dir;
  let cache = if no_cache then None else Some (Cache.create ()) in
  (* An unknown -b name or a --scale below 1 fails here, before any
     worker domain is spawned. *)
  let lab =
    match
      Lab.create ~scale ?names:(if benchmarks = [] then None else Some benchmarks) ~jobs ?cache
        ~policy:{ Lab.retries; keep_going } ?sample:sampling ()
    with
    | lab -> lab
    | exception Invalid_argument e ->
      Fmt.epr "%s@." e;
      exit 2
  in
  if verbose then Lab.set_logger lab (fun s -> Fmt.epr "[lab] %s@." s);
  (* SIGINT drains gracefully: the handler only flips an atomic flag; the
     batch lets its in-flight simulations finish and starts no other,
     raises [Interrupted] on the coordinating domain, and the
     [Fun.protect] below joins the workers. Finished jobs are already in
     the cache, so a rerun continues. *)
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         Fmt.epr "@.[lab] interrupt: draining in-flight jobs (re-run to continue)@.";
         Lab.request_stop lab));
  let code =
    Fun.protect
      ~finally:(fun () -> Lab.shutdown lab)
      (fun () ->
        try
          (* One batch computes every selected artifact's grid, so each
             trace is generated once and dies once the runs that read it
             are done; the tables render after it, from the memo. *)
          Lab.prewarm lab
            (List.concat_map
               (fun (name, _) -> Figures.jobs_for name lab @ Ablations.jobs_for name lab)
               selected);
          List.iter
            (fun (name, f) ->
              match f lab with
              | exception Lab.Job_failed fl ->
                Fmt.epr "[lab] %s skipped: %a@." name Lab.pp_failure fl;
                if not keep_going then raise (Lab.Job_failed fl)
              | table ->
                Wish_util.Table.print table;
                print_newline ();
                (match csv_dir with
                | None -> ()
                | Some dir ->
                  let path = Filename.concat dir (name ^ ".csv") in
                  let oc = open_out path in
                  output_string oc (Wish_util.Table.to_csv table);
                  close_out oc;
                  Fmt.epr "wrote %s@." path))
            selected;
          let st = Lab.batch_stats lab in
          if verbose || st.retried > 0 || st.failed > 0 then
            Fmt.epr
              "[lab] supervision: %d task(s) executed, %d retried, %d failed, %d cache hit(s)@."
              st.executed st.retried st.failed st.cache_hits;
          if verbose then
            Fmt.epr "[lab] gc: %s; peak RSS %d KiB@."
              (Wish_util.Gc_stats.summary_line ())
              (Wish_util.Gc_stats.peak_rss_kb ());
          if st.failed > 0 then 1 else 0
        with
        | Lab.Interrupted ->
          let st = Lab.batch_stats lab in
          Fmt.epr
            "[lab] interrupted: the cache has the completed jobs (%d cache hit(s) this run); \
             re-run to continue@."
            st.cache_hits;
          130
        | Lab.Job_failed fl ->
          Fmt.epr "[lab] fatal: %a (use --keep-going to continue past failures)@." Lab.pp_failure
            fl;
          1)
  in
  if code <> 0 then exit code

(* ----------------------------------------------------------------- *)
(* cache verify / cache prune                                         *)
(* ----------------------------------------------------------------- *)

let status_label = function
  | Cache.Entry_ok -> "ok"
  | Cache.Entry_stale v -> Printf.sprintf "stale (format v%d)" v
  | Cache.Entry_corrupt reason -> Printf.sprintf "CORRUPT: %s" reason

(* Exit codes (CI gates on them): 0 — every entry healthy (stale-format
   entries are allowed; [prune] owns them); 1 — corrupt entries were
   found, and they have been moved to the quarantine directory; 124 —
   cmdliner usage errors (its default). *)
let cache_verify dir quiet =
  let cache = Cache.create ?dir () in
  let r = Cache.verify cache in
  if not quiet then
    List.iter
      (fun (rel, s) ->
        match s with Cache.Entry_ok -> () | s -> Fmt.pr "%-48s %s@." rel (status_label s))
      r.Cache.v_entries;
  Fmt.pr "%s: %d entr%s ok, %d stale, %d corrupt@." (Cache.dir cache) r.Cache.v_ok
    (if r.Cache.v_ok = 1 then "y" else "ies")
    r.Cache.v_stale r.Cache.v_quarantined;
  if r.Cache.v_quarantined > 0 then begin
    Fmt.pr "quarantined %d corrupt entr%s under %s@." r.Cache.v_quarantined
      (if r.Cache.v_quarantined = 1 then "y" else "ies")
      (Cache.quarantine_dir cache);
    exit 1
  end

let cache_prune dir =
  let cache = Cache.create ?dir () in
  let r = Cache.prune cache in
  Fmt.pr "%s: kept %d, evicted %d stale, quarantined %d corrupt (see %s)@." (Cache.dir cache)
    r.kept r.evicted_stale r.quarantined (Cache.quarantine_dir cache)

let cache_stats dir =
  let cache = Cache.create ?dir () in
  let s = Cache.stats cache in
  Fmt.pr "%s: %d entr%s, %d byte%s@." (Cache.dir cache) s.Cache.st_entries
    (if s.Cache.st_entries = 1 then "y" else "ies")
    s.Cache.st_bytes
    (if s.Cache.st_bytes = 1 then "" else "s");
  List.iter
    (fun (v, n, b) ->
      Fmt.pr "  format v%d%s: %d entr%s, %d bytes@." v
        (if v = Cache.format_version then " (current)" else "")
        n
        (if n = 1 then "y" else "ies")
        b)
    s.Cache.st_by_version;
  if s.Cache.st_unrecognized > 0 then
    Fmt.pr "  unrecognized headers: %d@." s.Cache.st_unrecognized;
  Fmt.pr "  quarantined: %d@." s.Cache.st_quarantined;
  Fmt.pr "  journaled job keys: %d@." s.Cache.st_journal_keys

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "dir" ] ~doc:"Cache directory (default: \\$WISH_CACHE_DIR or _wishcache)")

let cache_cmd =
  let verify =
    let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary line") in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Scan every cache entry's version header and integrity footer, quarantining \
               corrupt entries. Exit 0: healthy (stale-format entries allowed); exit 1: \
               corrupt entries found and quarantined.")
      Term.(const cache_verify $ cache_dir_arg $ quiet)
  in
  let prune =
    Cmd.v
      (Cmd.info "prune"
         ~doc:"Evict stale-format entries and move corrupt ones to the quarantine directory")
      Term.(const cache_prune $ cache_dir_arg)
  in
  let stats =
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Occupancy snapshot: entry count, total bytes, per-format-version breakdown, \
               quarantine count, and journaled job keys. Reads headers only; modifies nothing.")
      Term.(const cache_stats $ cache_dir_arg)
  in
  Cmd.group (Cmd.info "cache" ~doc:"Inspect and maintain the persistent artifact cache")
    [ verify; prune; stats ]

(* ----------------------------------------------------------------- *)
(* CLI                                                                *)
(* ----------------------------------------------------------------- *)

let run_term =
  let names = Arg.(value & pos_all string [] & info [] ~docv:"ARTIFACT") in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Workload scale factor") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log compilation/simulation progress") in
  let benchmarks =
    Arg.(value & opt_all string [] & info [ "b"; "bench" ] ~doc:"Restrict to specific benchmarks")
  in
  let csv_dir =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~doc:"Also write each artifact as CSV into this directory")
  in
  let jobs =
    Arg.(value & opt string "auto"
         & info [ "j"; "jobs" ]
             ~doc:"Worker domains for compile/trace/simulate fan-out: an integer, or \
                   $(b,auto) (the default) for the machine's recommended domain count \
                   minus one — one hardware thread stays with the coordinating domain — \
                   never below 1")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Ignore the persistent artifact cache")
  in
  let retries =
    Arg.(value & opt int Lab.default_policy.retries
         & info [ "retries" ] ~doc:"Extra attempts for a failed job (at least 0)")
  in
  let keep_going =
    Arg.(value & flag
         & info [ "keep-going" ]
             ~doc:"Report failed jobs and continue with the remaining artifacts (default: fail fast)")
  in
  let sample =
    Arg.(value & opt (some string) None
         & info [ "sample" ]
             ~doc:"Simulate sampled (functional warming + measurement windows): W:D \
                   (warm:detail entries) or 'auto'. Summaries are cached under separate keys")
  in
  Term.(
    const run $ names $ scale $ verbose $ benchmarks $ csv_dir $ jobs $ no_cache $ retries
    $ keep_going $ sample)

let cmd =
  Cmd.v (Cmd.info "experiments" ~doc:"Regenerate the wish-branches paper's tables and figures")
    run_term

(* Artifact ids are free-form positionals ("experiments fig10 tab5"), so
   the maintenance subcommands cannot live in a [Cmd.group] (the group
   would claim every first positional). Dispatch on the literal "cache"
   and hand the rest of the line to its own command tree. *)
let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "cache" then
    exit
      (Cmd.eval ~argv:(Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)))
         cache_cmd)
  else exit (Cmd.eval cmd)
