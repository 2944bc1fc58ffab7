(** wishfuzz — differential fuzzing of the whole WISC pipeline.

    Generates seeded random Kernel programs, checks the five
    differential oracles (emulator lockstep, five-binary agreement,
    timing-core identity, exact-vs-sampled, artifact round-trips),
    shrinks any failure and saves it as a replayable .wisc repro.

    Examples:
      wishfuzz --seed 2005 --count 1000
      wishfuzz --oracle lockstep --oracle sim --count 200
      wishfuzz --replay test/fuzz_corpus

    Exit codes: 0 every checked case passed (or corpus replay green);
    1 at least one oracle failure; 2 usage errors. *)

open Cmdliner
module Fuzz = Wish_fuzz.Fuzz
module Oracle = Wish_fuzz.Oracle
module Corpus = Wish_fuzz.Corpus
module Shrink = Wish_fuzz.Shrink
module Gen = Wish_fuzz.Gen

let parse_oracles = function
  | [] -> Oracle.all_names
  | ids ->
    List.map
      (fun id ->
        match Oracle.name_of_id id with
        | Some n -> n
        | None ->
          Fmt.epr "unknown oracle %S (expected lockstep|binaries|sim|sampled|roundtrip)@." id;
          exit 2)
      ids

let print_failure verbose (f : Fuzz.failure) =
  Fmt.pr "FAIL case %d (seed %d): oracle %s@." f.Fuzz.f_index f.Fuzz.f_seed
    (Oracle.name_id f.Fuzz.f_oracle);
  Fmt.pr "  reason: %s@." f.Fuzz.f_reason;
  Fmt.pr "  shrink: %d steps, %d oracle calls, size %d -> %d@." f.Fuzz.f_steps f.Fuzz.f_tried
    f.Fuzz.f_size_before f.Fuzz.f_size_after;
  (match f.Fuzz.f_repro with
  | Some path -> Fmt.pr "  repro:  %s@." path
  | None -> ());
  if verbose then Fmt.pr "  shrunk case:@.%s@." (Gen.to_string f.Fuzz.f_shrunk)

let replay dir =
  match Corpus.replay_dir dir with
  | [] ->
    Fmt.pr "corpus %s: empty (nothing to replay)@." dir;
    0
  | results ->
    let bad = ref 0 in
    List.iter
      (fun (file, verdicts) ->
        List.iter
          (fun (oracle, v) ->
            match v with
            | Oracle.Pass -> Fmt.pr "replay %-40s %-8s pass@." file oracle
            | Oracle.Skip r -> Fmt.pr "replay %-40s %-8s skip (%s)@." file oracle r
            | Oracle.Fail r ->
              incr bad;
              Fmt.pr "replay %-40s %-8s FAIL: %s@." file oracle r)
          verdicts)
      results;
    if !bad = 0 then begin
      Fmt.pr "corpus %s: %d repro(s) green@." dir (List.length results);
      0
    end
    else 1

let run root count oracle_ids corpus_dir no_corpus shrink_tries max_failures replay_dir_opt
    verbose =
  Wish_util.Faultpoint.arm_from_env ();
  match replay_dir_opt with
  | Some dir -> exit (replay dir)
  | None ->
    let oracles = parse_oracles oracle_ids in
    let corpus_dir = if no_corpus then None else Some corpus_dir in
    let last_tick = ref 0 in
    let progress n =
      if n - !last_tick >= 100 then begin
        last_tick := n;
        Fmt.epr "  ... %d/%d@." n count
      end
    in
    let report =
      Fuzz.run ~oracles ?corpus_dir ~shrink_tries ~max_failures ~progress ~root ~count ()
    in
    List.iter (print_failure verbose) report.Fuzz.r_failures;
    Fmt.pr "wishfuzz: root seed %d, oracles [%s]: %s@." root
      (String.concat " " (List.map Oracle.name_id oracles))
      (Fuzz.summary_line report);
    exit (if Fuzz.report_ok report then 0 else 1)

let cmd =
  let root =
    Arg.(value & opt int 2005 & info [ "s"; "seed" ] ~doc:"Root seed (per-case seeds derive from it)")
  in
  let count = Arg.(value & opt int 1000 & info [ "n"; "count" ] ~doc:"Number of cases to check") in
  let oracle =
    Arg.(
      value & opt_all string []
      & info [ "o"; "oracle" ]
          ~doc:"Oracle to run: lockstep, binaries, sim, sampled or roundtrip (repeatable; \
                default all five)")
  in
  let corpus =
    Arg.(value & opt string "test/fuzz_corpus"
         & info [ "corpus" ] ~doc:"Directory where shrunk repros are saved as .wisc files")
  in
  let no_corpus =
    Arg.(value & flag & info [ "no-corpus" ] ~doc:"Do not write repro files for failures")
  in
  let shrink_tries =
    Arg.(value & opt int 2000
         & info [ "shrink-tries" ] ~doc:"Oracle-evaluation budget per shrink")
  in
  let max_failures =
    Arg.(value & opt int 10 & info [ "max-failures" ] ~doc:"Stop after this many failing cases")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ]
             ~doc:"Replay every .wisc repro in this directory through the program-level \
                   oracles instead of fuzzing")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print shrunk cases in full") in
  Cmd.v
    (Cmd.info "wishfuzz" ~doc:"Differential fuzzing of the WISC compiler/emulator/simulator")
    Term.(
      const run $ root $ count $ oracle $ corpus $ no_corpus $ shrink_tries $ max_failures
      $ replay $ verbose)

let () = exit (Cmd.eval cmd)
